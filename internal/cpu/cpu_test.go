package cpu

import (
	"math"
	"testing"

	"bwpart/internal/mem"
)

// scriptStream replays a fixed instruction slice, then repeats its last
// element (or plain non-mem instructions when empty).
type scriptStream struct {
	instrs []Instr
	pos    int
	loop   bool
}

func (s *scriptStream) Next() Instr {
	if s.pos >= len(s.instrs) {
		if s.loop && len(s.instrs) > 0 {
			s.pos = 0
		} else {
			return Instr{}
		}
	}
	in := s.instrs[s.pos]
	s.pos++
	return in
}

// stubL1 completes loads after a fixed latency, counted in Tick calls.
type stubL1 struct {
	latency  int64
	reject   bool
	inflight []struct {
		at   int64
		done func(int64)
	}
	loads, stores int
}

func (s *stubL1) Access(now int64, req *mem.Request) bool {
	if s.reject {
		return false
	}
	if req.Write {
		s.stores++
		return true
	}
	s.loads++
	s.inflight = append(s.inflight, struct {
		at   int64
		done func(int64)
	}{now + s.latency, req.Done})
	return true
}

func (s *stubL1) tick(now int64) {
	kept := s.inflight[:0]
	for _, f := range s.inflight {
		if f.at <= now {
			f.done(now)
		} else {
			kept = append(kept, f)
		}
	}
	s.inflight = kept
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.ROBSize = 0 },
		func(c *Config) { c.BaseIPC = 0 },
		func(c *Config) { c.MaxOutstandingLoads = 0 },
	}
	for i, f := range bad {
		cfg := DefaultConfig()
		f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := New(DefaultConfig(), 0, nil, &scriptStream{}); err == nil {
		t.Error("nil L1 accepted")
	}
	if _, err := New(DefaultConfig(), 0, &stubL1{}, nil); err == nil {
		t.Error("nil stream accepted")
	}
}

func TestNonMemIPCEqualsBaseIPC(t *testing.T) {
	for _, base := range []float64{0.5, 1.0, 2.5, 8.0} {
		cfg := DefaultConfig()
		cfg.BaseIPC = base
		c, err := New(cfg, 0, &stubL1{latency: 1}, &scriptStream{})
		if err != nil {
			t.Fatal(err)
		}
		n := int64(10_000)
		for cyc := int64(0); cyc < n; cyc++ {
			c.Tick(cyc)
		}
		got := c.Stats().IPC()
		if math.Abs(got-base)/base > 0.02 {
			t.Errorf("BaseIPC=%v: measured IPC %v", base, got)
		}
	}
}

func TestIPCCappedByWidth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width = 4
	cfg.BaseIPC = 100 // absurd; must clamp to width
	c, _ := New(cfg, 0, &stubL1{latency: 1}, &scriptStream{})
	for cyc := int64(0); cyc < 5000; cyc++ {
		c.Tick(cyc)
	}
	got := c.Stats().IPC()
	if got > 4.01 {
		t.Fatalf("IPC %v exceeds width 4", got)
	}
	if got < 3.9 {
		t.Fatalf("IPC %v far below width cap", got)
	}
}

// memEvery builds a looping stream with one load every k instructions.
func memEvery(k int) *scriptStream {
	instrs := make([]Instr, k)
	instrs[k-1] = Instr{Mem: true, Cold: true, Addr: 0x1000}
	s := &scriptStream{instrs: instrs, loop: true}
	for i := 0; i < k-1; i++ {
		instrs[i] = Instr{}
	}
	return s
}

func TestMemoryLatencyReducesIPC(t *testing.T) {
	run := func(lat int64) float64 {
		l1 := &stubL1{latency: lat}
		cfg := DefaultConfig()
		cfg.BaseIPC = 4
		cfg.MaxOutstandingLoads = 1 // fully serialized misses
		c, _ := New(cfg, 0, l1, memEvery(10))
		for cyc := int64(0); cyc < 50_000; cyc++ {
			l1.tick(cyc)
			c.Tick(cyc)
		}
		return c.Stats().IPC()
	}
	fast, slow := run(5), run(200)
	if !(slow < fast) {
		t.Fatalf("IPC should fall with latency: fast=%v slow=%v", fast, slow)
	}
	// With MLP 1 and a load every 10 instructions, the analytic bound is
	// IPC ~= 10/(10/BaseIPC + latency-ish). Check slow run is latency-bound.
	if slow > 10.0/(200.0/1.5) {
		t.Fatalf("slow IPC %v too high for serialized 200-cycle misses", slow)
	}
}

func TestMLPImprovesIPCUnderLatency(t *testing.T) {
	run := func(mlp int) float64 {
		l1 := &stubL1{latency: 200}
		cfg := DefaultConfig()
		cfg.BaseIPC = 4
		cfg.MaxOutstandingLoads = mlp
		c, _ := New(cfg, 0, l1, memEvery(10))
		for cyc := int64(0); cyc < 50_000; cyc++ {
			l1.tick(cyc)
			c.Tick(cyc)
		}
		return c.Stats().IPC()
	}
	serial, parallel := run(1), run(8)
	if parallel < serial*2 {
		t.Fatalf("MLP should overlap misses: mlp1=%v mlp8=%v", serial, parallel)
	}
}

func TestROBBoundsLatencyTolerance(t *testing.T) {
	// With a huge MLP allowance, the ROB becomes the limit: 16 entries can
	// cover far less latency than 192.
	run := func(rob int) float64 {
		l1 := &stubL1{latency: 300}
		cfg := DefaultConfig()
		cfg.ROBSize = rob
		cfg.BaseIPC = 4
		cfg.MaxOutstandingLoads = 64
		c, _ := New(cfg, 0, l1, memEvery(10))
		for cyc := int64(0); cyc < 50_000; cyc++ {
			l1.tick(cyc)
			c.Tick(cyc)
		}
		return c.Stats().IPC()
	}
	small, large := run(16), run(192)
	if large < small*1.5 {
		t.Fatalf("larger ROB should tolerate latency better: rob16=%v rob192=%v", small, large)
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	// All-store stream with a slow L1 that still accepts: IPC should stay
	// at BaseIPC because stores are posted.
	l1 := &stubL1{latency: 1000}
	cfg := DefaultConfig()
	cfg.BaseIPC = 2
	s := &scriptStream{instrs: []Instr{{Mem: true, Write: true, Addr: 64}}, loop: true}
	c, _ := New(cfg, 0, l1, s)
	for cyc := int64(0); cyc < 10_000; cyc++ {
		c.Tick(cyc)
	}
	got := c.Stats().IPC()
	if math.Abs(got-2) > 0.05 {
		t.Fatalf("store-only IPC = %v, want ~2", got)
	}
	if c.Stats().Stores == 0 {
		t.Fatal("no stores issued")
	}
}

func TestL1RejectStallsAndRetries(t *testing.T) {
	l1 := &stubL1{latency: 5, reject: true}
	cfg := DefaultConfig()
	cfg.BaseIPC = 2
	c, _ := New(cfg, 0, l1, memEvery(2))
	for cyc := int64(0); cyc < 100; cyc++ {
		l1.tick(cyc)
		c.Tick(cyc)
	}
	if c.Stats().RejectStallCycles == 0 {
		t.Fatal("reject stalls not counted")
	}
	loadsWhileRejecting := l1.loads
	if loadsWhileRejecting != 0 {
		t.Fatal("loads recorded despite rejection")
	}
	l1.reject = false
	for cyc := int64(100); cyc < 200; cyc++ {
		l1.tick(cyc)
		c.Tick(cyc)
	}
	if l1.loads == 0 {
		t.Fatal("rejected load never retried")
	}
}

func TestStatsCountersConsistent(t *testing.T) {
	l1 := &stubL1{latency: 20}
	cfg := DefaultConfig()
	c, _ := New(cfg, 0, l1, memEvery(5))
	n := int64(20_000)
	for cyc := int64(0); cyc < n; cyc++ {
		l1.tick(cyc)
		c.Tick(cyc)
	}
	st := c.Stats()
	if st.Cycles != n {
		t.Fatalf("cycles = %d, want %d", st.Cycles, n)
	}
	if st.Retired == 0 || st.Loads == 0 {
		t.Fatalf("nothing happened: %+v", st)
	}
	// One load per 5 instructions: dispatched loads track retirement.
	ratio := float64(st.Loads) / float64(st.Retired)
	if math.Abs(ratio-0.2) > 0.05 {
		t.Fatalf("loads/retired = %v, want ~0.2", ratio)
	}
}

func TestRetireInOrder(t *testing.T) {
	// A load followed by non-mem instructions: none of the younger
	// instructions may retire before the load returns.
	l1 := &stubL1{latency: 500}
	cfg := DefaultConfig()
	cfg.BaseIPC = 8
	cfg.ROBSize = 32
	s := &scriptStream{instrs: append([]Instr{{Mem: true, Cold: true, Addr: 64}}, make([]Instr, 1000)...)}
	c, _ := New(cfg, 0, l1, s)
	for cyc := int64(0); cyc < 400; cyc++ {
		l1.tick(cyc)
		c.Tick(cyc)
	}
	if got := c.Stats().Retired; got != 0 {
		t.Fatalf("retired %d instructions past an outstanding load", got)
	}
	if c.robCount != 32 {
		t.Fatalf("ROB occupancy %d, want full (32)", c.robCount)
	}
	if c.Stats().ROBFullCycles == 0 {
		t.Fatal("ROB-full stalls not counted")
	}
	for cyc := int64(400); cyc < 1200; cyc++ {
		l1.tick(cyc)
		c.Tick(cyc)
	}
	if c.Stats().Retired == 0 {
		t.Fatal("nothing retired after load completion")
	}
}
