package cache

import (
	"testing"

	"bwpart/internal/mem"
)

// fakeLower is a scriptable lower level: completes fills after a fixed
// delay, can be told to reject, and records traffic.
type fakeLower struct {
	delay    int64
	reject   bool
	reads    []uint64
	writes   []uint64
	pending  []func()
	rejected int
}

func (f *fakeLower) Access(now int64, req *mem.Request) bool {
	if f.reject {
		f.rejected++
		return false
	}
	if req.Write {
		f.writes = append(f.writes, req.Addr)
		if req.Done != nil {
			done := req.Done
			f.pending = append(f.pending, func() { done(now + f.delay) })
		}
		return true
	}
	f.reads = append(f.reads, req.Addr)
	done := req.Done
	f.pending = append(f.pending, func() { done(now + f.delay) })
	return true
}

// deliver completes all pending lower-level requests.
func (f *fakeLower) deliver() {
	p := f.pending
	f.pending = nil
	for _, fn := range p {
		fn()
	}
}

func smallCfg() Config {
	// 4 sets x 2 ways x 64B = 512B: easy to force evictions.
	return Config{Name: "T", SizeBytes: 512, Ways: 2, LineBytes: 64, HitLatency: 2, MSHRs: 2}
}

func newTestCache(t *testing.T) (*Cache, *fakeLower) {
	t.Helper()
	low := &fakeLower{delay: 10}
	c, err := New(smallCfg(), low)
	if err != nil {
		t.Fatal(err)
	}
	return c, low
}

// drive advances the cache n cycles from start.
func drive(c *Cache, start, n int64) int64 {
	for cyc := start; cyc < start+n; cyc++ {
		c.Tick(cyc)
	}
	return start + n
}

func TestConfigValidate(t *testing.T) {
	if err := L1D().Validate(); err != nil {
		t.Errorf("L1D invalid: %v", err)
	}
	if err := L2().Validate(); err != nil {
		t.Errorf("L2 invalid: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, Ways: 1, LineBytes: 64, MSHRs: 1},
		{SizeBytes: 512, Ways: 3, LineBytes: 64, MSHRs: 1}, // 512/(3*64) not integral
		{SizeBytes: 576, Ways: 3, LineBytes: 64, MSHRs: 1}, // 3 sets: not power of two
		{SizeBytes: 512, Ways: 2, LineBytes: 64, MSHRs: 0}, // no MSHRs
		{SizeBytes: 512, Ways: 2, LineBytes: 64, MSHRs: 1, HitLatency: -1},
		{SizeBytes: 2 * maxWays * 64, Ways: 2 * maxWays, LineBytes: 64, MSHRs: 1}, // ranks overflow a line's meta word
		{SizeBytes: 512, Ways: 2, LineBytes: 1, MSHRs: 1},                         // a line address could be the empty-way tag
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := New(smallCfg(), nil); err == nil {
		t.Error("nil lower accepted")
	}
}

func TestMissThenHit(t *testing.T) {
	c, low := newTestCache(t)
	var missDone, hitDone int64 = -1, -1
	c.Access(0, &mem.Request{Addr: 0x40, Done: func(cy int64) { missDone = cy }})
	if len(low.reads) != 0 {
		t.Fatal("fill sent before tag lookup latency elapsed")
	}
	drive(c, 0, 5) // lookup latency passes; fill goes out
	if len(low.reads) != 1 || low.reads[0] != 0x40 {
		t.Fatalf("fill reads = %v", low.reads)
	}
	low.deliver()
	if missDone < 0 {
		t.Fatal("miss waiter not woken on fill")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats after miss: %+v", st)
	}
	// Second access to the same line: a hit with HitLatency delay.
	c.Access(100, &mem.Request{Addr: 0x44, Done: func(cy int64) { hitDone = cy }})
	drive(c, 100, 5)
	if hitDone != 102 {
		t.Fatalf("hit completion at %d, want 102", hitDone)
	}
	if got := c.Stats().Hits; got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
}

func TestMSHRMergeSingleFill(t *testing.T) {
	c, low := newTestCache(t)
	done := 0
	for i := 0; i < 3; i++ {
		ok := c.Access(0, &mem.Request{Addr: 0x80 + uint64(i*8), Done: func(int64) { done++ }})
		if !ok {
			t.Fatalf("access %d rejected", i)
		}
	}
	drive(c, 0, 5)
	if len(low.reads) != 1 {
		t.Fatalf("merged misses should send one fill, sent %d", len(low.reads))
	}
	low.deliver()
	if done != 3 {
		t.Fatalf("woke %d waiters, want 3", done)
	}
	st := c.Stats()
	if st.Misses != 1 || st.MSHRMerges != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMSHRFullRejects(t *testing.T) {
	c, _ := newTestCache(t) // 2 MSHRs
	if !c.Access(0, &mem.Request{Addr: 0 * 64, Done: func(int64) {}}) {
		t.Fatal("first miss rejected")
	}
	if !c.Access(0, &mem.Request{Addr: 1 * 64, Done: func(int64) {}}) {
		t.Fatal("second miss rejected")
	}
	if c.Access(0, &mem.Request{Addr: 2 * 64, Done: func(int64) {}}) {
		t.Fatal("third distinct miss accepted with 2 MSHRs")
	}
	if got := c.Stats().Rejects; got != 1 {
		t.Fatalf("rejects = %d, want 1", got)
	}
	if got := len(c.mshrs); got != 2 {
		t.Fatalf("outstanding = %d, want 2", got)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c, low := newTestCache(t)
	// Set 0 holds lines whose lineAddr%4 == 0: line addrs 0,4,8 (byte 0,
	// 0x100, 0x200). Fill two ways, touch the first, then fill a third: the
	// second (least recently used) must be evicted.
	fill := func(addr uint64, at int64) {
		c.Access(at, &mem.Request{Addr: addr, Done: func(int64) {}})
		drive(c, at, 5)
		low.deliver()
	}
	fill(0x000, 0)
	fill(0x100, 100)
	// Touch 0x000 to make it MRU.
	c.Access(200, &mem.Request{Addr: 0x000, Done: func(int64) {}})
	drive(c, 200, 5)
	// Fill 0x200: evicts 0x100 (clean, silent).
	fill(0x200, 300)
	// 0x000 must still hit; 0x100 must miss.
	h := c.Stats().Hits
	c.Access(400, &mem.Request{Addr: 0x000, Done: func(int64) {}})
	drive(c, 400, 5)
	if c.Stats().Hits != h+1 {
		t.Fatal("MRU line was evicted")
	}
	m := c.Stats().Misses
	c.Access(500, &mem.Request{Addr: 0x100, Done: func(int64) {}})
	drive(c, 500, 5)
	if c.Stats().Misses != m+1 {
		t.Fatal("LRU line was not evicted")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c, low := newTestCache(t)
	fillW := func(addr uint64, at int64, write bool) {
		c.Access(at, &mem.Request{Addr: addr, Write: write, Done: func(int64) {}})
		drive(c, at, 5)
		low.deliver()
	}
	fillW(0x000, 0, true) // dirty line
	fillW(0x100, 100, false)
	fillW(0x200, 200, false) // evicts dirty 0x000
	if got := c.Stats().Writebacks; got != 1 {
		t.Fatalf("writebacks = %d, want 1", got)
	}
	if len(low.writes) != 1 || low.writes[0] != 0x000 {
		t.Fatalf("writeback addresses = %v, want [0x0]", low.writes)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c, low := newTestCache(t)
	// Clean fill, then write hit, then eviction must write back.
	c.Access(0, &mem.Request{Addr: 0x000, Done: func(int64) {}})
	drive(c, 0, 5)
	low.deliver()
	c.Access(50, &mem.Request{Addr: 0x000, Write: true}) // posted store hit
	drive(c, 50, 5)
	// Fill two more lines in set 0 to evict 0x000.
	for i, a := range []uint64{0x100, 0x200} {
		c.Access(int64(100+100*i), &mem.Request{Addr: a, Done: func(int64) {}})
		drive(c, int64(100+100*i), 5)
		low.deliver()
	}
	if got := c.Stats().Writebacks; got != 1 {
		t.Fatalf("writebacks = %d, want 1 (write hit should dirty the line)", got)
	}
}

func TestWriteMissInstallsDirty(t *testing.T) {
	c, low := newTestCache(t)
	c.Access(0, &mem.Request{Addr: 0x000, Write: true, Done: func(int64) {}})
	drive(c, 0, 5)
	low.deliver()
	for i, a := range []uint64{0x100, 0x200} {
		c.Access(int64(100+100*i), &mem.Request{Addr: a, Done: func(int64) {}})
		drive(c, int64(100+100*i), 5)
		low.deliver()
	}
	if got := c.Stats().Writebacks; got != 1 {
		t.Fatalf("writebacks = %d, want 1 (write-allocate must install dirty)", got)
	}
}

func TestDeferredRetryPreservesRequests(t *testing.T) {
	c, low := newTestCache(t)
	low.reject = true
	done := false
	c.Access(0, &mem.Request{Addr: 0x40, Done: func(int64) { done = true }})
	drive(c, 0, 10) // fill rejected, kept deferred
	if low.rejected == 0 {
		t.Fatal("lower level never saw the attempt")
	}
	low.reject = false
	drive(c, 10, 5)
	if len(low.reads) != 1 {
		t.Fatalf("deferred fill not retried: reads=%v", low.reads)
	}
	low.deliver()
	if !done {
		t.Fatal("waiter not completed after retry")
	}
}

func TestTouchWarmsWithoutTiming(t *testing.T) {
	c, low := newTestCache(t)
	c.Touch(0x40, false)
	if len(low.reads)+len(low.pending) != 0 {
		t.Fatal("Touch must not generate timed traffic")
	}
	// Now a timed access must hit.
	c.Access(0, &mem.Request{Addr: 0x40, Done: func(int64) {}})
	drive(c, 0, 5)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("after Touch: %+v", st)
	}
}

func TestTouchPropagatesToLowerCache(t *testing.T) {
	low := &fakeLower{delay: 1}
	l2, err := New(L2(), low)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := New(L1D(), l2)
	if err != nil {
		t.Fatal(err)
	}
	l1.Touch(0x1234, false)
	// The line must now be present in both levels: a timed L1 eviction of
	// it would hit in L2. Check L2 directly with a timed access.
	l2.Access(0, &mem.Request{Addr: 0x1234, Done: func(int64) {}})
	for cyc := int64(0); cyc < 30; cyc++ {
		l2.Tick(cyc)
	}
	if st := l2.Stats(); st.Hits != 1 {
		t.Fatalf("L2 not warmed by L1 Touch: %+v", st)
	}
}

func TestTwoLevelHierarchyEndToEnd(t *testing.T) {
	low := &fakeLower{delay: 50}
	l2, _ := New(L2(), low)
	l1, _ := New(L1D(), l2)
	var doneAt int64 = -1
	l1.Access(0, &mem.Request{App: 3, Addr: 0x5000, Done: func(cy int64) { doneAt = cy }})
	for cyc := int64(0); cyc < 200; cyc++ {
		l1.Tick(cyc)
		l2.Tick(cyc)
		low.deliver()
	}
	if doneAt < 0 {
		t.Fatal("request never completed through two levels")
	}
	if len(low.reads) != 1 || low.reads[0] != 0x5000 {
		t.Fatalf("memory traffic = %v", low.reads)
	}
	if l1.Stats().Misses != 1 || l2.Stats().Misses != 1 {
		t.Fatalf("l1=%+v l2=%+v", l1.Stats(), l2.Stats())
	}
	// The full path cost at least L1+L2 lookup plus memory delay.
	if min := L1D().HitLatency + L2().HitLatency + 50; doneAt < min {
		t.Fatalf("completed at %d, faster than physically possible (%d)", doneAt, min)
	}
}
