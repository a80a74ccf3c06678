package cache

import (
	"math/rand"
	"testing"

	"bwpart/internal/mem"
)

func sharedCfg() Config {
	// 8 sets x 8 ways x 64B = 4KB.
	return Config{Name: "SL2", SizeBytes: 4096, Ways: 8, LineBytes: 64, HitLatency: 2, MSHRs: 8}
}

func newShared(t *testing.T, quota []int) (*SharedCache, *fakeLower) {
	t.Helper()
	low := &fakeLower{delay: 5}
	c, err := NewShared(sharedCfg(), len(quota), quota, low)
	if err != nil {
		t.Fatal(err)
	}
	return c, low
}

func TestNewSharedValidation(t *testing.T) {
	low := &fakeLower{}
	if _, err := NewShared(sharedCfg(), 2, []int{4, 4}, nil); err == nil {
		t.Error("nil lower accepted")
	}
	if _, err := NewShared(sharedCfg(), 0, nil, low); err == nil {
		t.Error("zero apps accepted")
	}
	if _, err := NewShared(sharedCfg(), 2, []int{4}, low); err == nil {
		t.Error("quota length mismatch accepted")
	}
	if _, err := NewShared(sharedCfg(), 2, []int{8, 1}, low); err == nil {
		t.Error("over-committed quotas accepted")
	}
	if _, err := NewShared(sharedCfg(), 2, []int{0, 4}, low); err == nil {
		t.Error("zero-way quota accepted")
	}
	bad := sharedCfg()
	bad.Ways = 0
	if _, err := NewShared(bad, 1, []int{1}, low); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSharedHitMissPerApp(t *testing.T) {
	c, low := newShared(t, []int{4, 4})
	var done int
	c.Access(0, &mem.Request{App: 0, Addr: 0x40, Done: func(int64) { done++ }})
	for cyc := int64(0); cyc < 10; cyc++ {
		c.Tick(cyc)
	}
	low.deliver()
	if done != 1 {
		t.Fatal("miss never completed")
	}
	if st := c.StatsFor(0); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("app0 stats %+v", st)
	}
	// Same line from app 1: a shared cache hit (data is shared).
	c.Access(20, &mem.Request{App: 1, Addr: 0x40, Done: func(int64) { done++ }})
	for cyc := int64(20); cyc < 30; cyc++ {
		c.Tick(cyc)
	}
	if st := c.StatsFor(1); st.Hits != 1 {
		t.Fatalf("app1 stats %+v", st)
	}
}

func TestSharedQuotaEnforced(t *testing.T) {
	// App 0 has 2 ways, app 1 has 6. App 0 streams over one set: its
	// occupancy must never exceed 2 ways, leaving app 1's lines resident.
	c, low := newShared(t, []int{2, 6})
	fill := func(app int, addr uint64, at int64) {
		c.Access(at, &mem.Request{App: app, Addr: addr, Done: func(int64) {}})
		for cyc := at; cyc < at+8; cyc++ {
			c.Tick(cyc)
		}
		low.deliver()
	}
	// Set stride: 8 sets x 64B = 512B between lines of the same set.
	const setStride = 512
	// App 1 installs 4 lines in set 0.
	for i := 0; i < 4; i++ {
		fill(1, uint64(i)*setStride, int64(i)*20)
	}
	// App 0 streams 20 distinct lines through set 0.
	for i := 4; i < 24; i++ {
		fill(0, uint64(i)*setStride, int64(i)*20)
	}
	// App 1's four lines must all still hit.
	h := c.StatsFor(1).Hits
	for i := 0; i < 4; i++ {
		fill(1, uint64(i)*setStride, int64(1000+i)*20)
	}
	if got := c.StatsFor(1).Hits - h; got != 4 {
		t.Fatalf("app1 retained %d of 4 lines against a streaming neighbor", got)
	}
}

func TestSharedDirtyWritebackAttribution(t *testing.T) {
	c, low := newShared(t, []int{2, 6})
	fill := func(app int, addr uint64, write bool, at int64) {
		c.Access(at, &mem.Request{App: app, Addr: addr, Write: write, Done: func(int64) {}})
		for cyc := at; cyc < at+8; cyc++ {
			c.Tick(cyc)
		}
		low.deliver()
	}
	const setStride = 512
	fill(0, 0, true, 0) // app0 dirty line
	// App 0 streams past its 2-way quota, evicting its own dirty line.
	fill(0, setStride, false, 100)
	fill(0, 2*setStride, false, 200)
	if got := c.StatsFor(0).Writebacks; got != 1 {
		t.Fatalf("app0 writebacks = %d, want 1", got)
	}
	if len(low.writes) != 1 || low.writes[0] != 0 {
		t.Fatalf("writeback addrs = %v", low.writes)
	}
}

func TestSharedPortForAttributesApp(t *testing.T) {
	c, low := newShared(t, []int{4, 4})
	p1 := c.PortFor(1)
	p1.Access(0, &mem.Request{Addr: 0x80, Done: func(int64) {}})
	for cyc := int64(0); cyc < 10; cyc++ {
		c.Tick(cyc)
	}
	low.deliver()
	if c.StatsFor(1).Misses != 1 || c.StatsFor(0).Misses != 0 {
		t.Fatal("PortFor did not attribute the access")
	}
	// Touch warms without timing.
	p1.Touch(0x2000, false)
	p1.Access(100, &mem.Request{Addr: 0x2000, Done: func(int64) {}})
	for cyc := int64(100); cyc < 110; cyc++ {
		c.Tick(cyc)
	}
	if c.StatsFor(1).Hits != 1 {
		t.Fatal("Touch did not warm the shared cache")
	}
}

func TestSharedUnknownAppPanics(t *testing.T) {
	c, _ := newShared(t, []int{4, 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Access(0, &mem.Request{App: 7, Addr: 0})
}

func TestSharedCapacityPressureChangesMissRate(t *testing.T) {
	// The same reference stream under a 1-way vs 6-way quota: more ways,
	// fewer misses. This is the mechanism behind API_shared in the paper's
	// shared-L2 footnote.
	run := func(ways int) int64 {
		low := &fakeLower{delay: 1}
		c, err := NewShared(sharedCfg(), 2, []int{ways, 8 - ways - 0}, low)
		if err != nil {
			panic(err)
		}
		r := rand.New(rand.NewSource(42))
		// Working set of 4 lines per set (32 lines over 8 sets = 2KB).
		for i := 0; i < 3000; i++ {
			addr := uint64(r.Intn(32)) * 64
			c.Access(int64(i*4), &mem.Request{App: 0, Addr: addr, Done: func(int64) {}})
			for cyc := int64(i * 4); cyc < int64(i*4+4); cyc++ {
				c.Tick(cyc)
			}
			low.deliver()
		}
		return c.StatsFor(0).Misses
	}
	small, large := run(1), run(6)
	if large >= small {
		t.Fatalf("more capacity should reduce misses: 1-way %d vs 6-way %d", small, large)
	}
}
