package memctrl

import (
	"math"
	"math/rand"
	"testing"

	"bwpart/internal/dram"
	"bwpart/internal/mem"
)

func testDevice(t *testing.T, policy dram.PagePolicy) *dram.Device {
	t.Helper()
	cfg := dram.DDR2_400()
	cfg.TRFCns = 0
	cfg.TREFIns = 0
	cfg.Policy = policy
	dev, err := dram.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestNewValidation(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	if _, err := New(nil, 1, 0, NewFCFS()); err == nil {
		t.Error("nil device accepted")
	}
	if _, err := New(dev, 0, 0, NewFCFS()); err == nil {
		t.Error("zero apps accepted")
	}
	if _, err := New(dev, 1, 0, nil); err == nil {
		t.Error("nil scheduler accepted")
	}
}

// run drives the controller for n cycles starting at cycle start.
func run(c *Controller, start, n int64) int64 {
	for cyc := start; cyc < start+n; cyc++ {
		c.Tick(cyc)
	}
	return start + n
}

func TestSingleReadCompletes(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	c, err := New(dev, 1, 0, NewFCFS())
	if err != nil {
		t.Fatal(err)
	}
	var doneAt int64 = -1
	ok := c.Access(0, &mem.Request{App: 0, Addr: 0, Done: func(cy int64) { doneAt = cy }})
	if !ok {
		t.Fatal("Access rejected with empty queue")
	}
	run(c, 0, 2000)
	tm := dev.Timing()
	want := tm.TRCD + tm.CL + tm.Burst // issued at cycle 0
	if doneAt != want {
		t.Fatalf("completion at %d, want %d", doneAt, want)
	}
	if !c.Drained() {
		t.Fatal("controller should be drained")
	}
	st := c.Stats()
	if st[0].Reads != 1 || st[0].Writes != 0 {
		t.Fatalf("stats = %+v", st[0])
	}
}

func TestPostedWriteNeedsNoCallback(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	c, _ := New(dev, 1, 0, NewFCFS())
	c.Access(0, &mem.Request{App: 0, Addr: 128, Write: true})
	run(c, 0, 2000)
	if got := c.Stats()[0].Writes; got != 1 {
		t.Fatalf("writes = %d, want 1", got)
	}
}

func TestQueueCapacity(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	c, _ := New(dev, 1, 2, NewFCFS())
	r := func() *mem.Request { return &mem.Request{App: 0, Addr: 0} }
	if !c.Access(0, r()) || !c.Access(0, r()) {
		t.Fatal("first two should be accepted")
	}
	if c.Access(0, r()) {
		t.Fatal("third should be rejected (cap 2)")
	}
	run(c, 0, 5000)
	if !c.Access(5000, r()) {
		t.Fatal("should accept again after draining")
	}
}

func TestUnknownAppPanics(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	c, _ := New(dev, 2, 0, NewFCFS())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range app")
		}
	}()
	c.Access(0, &mem.Request{App: 5, Addr: 0})
}

func TestFCFSOrdersByArrival(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	c, _ := New(dev, 2, 0, NewFCFS())
	var order []int
	mk := func(app int, addr uint64) *mem.Request {
		return &mem.Request{App: app, Addr: addr, Done: func(int64) { order = append(order, app) }}
	}
	// Same bank for all → service strictly serialized; FCFS must follow
	// arrival order regardless of app.
	c.Access(0, mk(1, 0))
	c.Access(1, mk(0, 1<<20))
	c.Access(2, mk(1, 2<<20))
	run(c, 0, 20000)
	if len(order) != 3 || order[0] != 1 || order[1] != 0 || order[2] != 1 {
		t.Fatalf("completion order = %v, want [1 0 1]", order)
	}
}

func TestStartTimeFairSharesEnforced(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	stf, err := NewStartTimeFair([]float64{0.75, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(dev, 2, 0, stf)
	// Both apps permanently backlogged: refill queues each cycle.
	r := rand.New(rand.NewSource(42))
	var served [2]int64
	nextAddr := [2]uint64{0, 1 << 30}
	var cyc int64
	for cyc = 0; cyc < 400_000; cyc++ {
		for app := 0; app < 2; app++ {
			for c.PendingFor(app) < 8 {
				a := app
				c.Access(cyc, &mem.Request{
					App:  app,
					Addr: nextAddr[app],
					Done: func(int64) { served[a]++ },
				})
				nextAddr[app] += uint64(64 * (1 + r.Intn(4)))
			}
		}
		c.Tick(cyc)
	}
	total := served[0] + served[1]
	if total < 1000 {
		t.Fatalf("too few served: %d", total)
	}
	frac := float64(served[0]) / float64(total)
	if math.Abs(frac-0.75) > 0.03 {
		t.Fatalf("app0 share = %.3f, want 0.75 +/- 0.03 (served %v)", frac, served)
	}
}

func TestStartTimeFairCatchUp(t *testing.T) {
	// The paper's modification: an app idle for a while retains its tag, so
	// when it returns it is served ahead of the busy app until it catches
	// up. Verify the first requests after idling win over the backlogged
	// app.
	dev := testDevice(t, dram.ClosePage)
	stf, _ := NewStartTimeFair([]float64{0.5, 0.5})
	c, _ := New(dev, 2, 0, stf)
	var served [2]int64
	addr := [2]uint64{0, 1 << 30}
	r := rand.New(rand.NewSource(7))
	push := func(app int, cyc int64) {
		a := app
		c.Access(cyc, &mem.Request{App: app, Addr: addr[app], Done: func(int64) { served[a]++ }})
		// Random stride spreads requests over many banks so bank busy time
		// does not confound the virtual-time property under test.
		addr[app] += uint64(64 * (1 + r.Intn(16)))
	}
	// Phase 1: only app 0 runs; its tag advances far ahead.
	var cyc int64
	for ; cyc < 50_000; cyc++ {
		for c.PendingFor(0) < 4 {
			push(0, cyc)
		}
		c.Tick(cyc)
	}
	phase1 := served[0]
	if phase1 == 0 {
		t.Fatal("app0 should have been served in phase 1")
	}
	// Phase 2: both backlogged. App 1 must receive nearly all service until
	// its tag catches up.
	window := int64(20_000)
	start := cyc
	s0 := served[0]
	for ; cyc < start+window; cyc++ {
		for app := 0; app < 2; app++ {
			for c.PendingFor(app) < 4 {
				push(app, cyc)
			}
		}
		c.Tick(cyc)
	}
	d0, d1 := served[0]-s0, served[1]
	if d1 <= d0*5 {
		t.Fatalf("idle app should dominate during catch-up: app0 +%d, app1 +%d", d0, d1)
	}
}

// nonFiniteShares are two-app share vectors with a NaN or infinite share, or
// with finite shares whose sum overflows.
func nonFiniteShares() [][]float64 {
	return [][]float64{
		{math.NaN(), 1}, {1, math.Inf(1)}, {math.Inf(-1), 1}, {math.MaxFloat64, math.MaxFloat64},
	}
}

func TestStartTimeFairSetSharesValidation(t *testing.T) {
	if _, err := NewStartTimeFair(nil); err == nil {
		t.Error("empty shares accepted")
	}
	if _, err := NewStartTimeFair([]float64{0.5, 0}); err == nil {
		t.Error("zero share accepted")
	}
	stf, _ := NewStartTimeFair([]float64{1, 1})
	if err := stf.SetShares([]float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	for _, bad := range nonFiniteShares() {
		if _, err := NewStartTimeFair(bad); err == nil {
			t.Errorf("NewStartTimeFair(%v) accepted", bad)
		}
		if err := stf.SetShares(bad); err == nil {
			t.Errorf("SetShares(%v) accepted", bad)
		}
	}
	if err := stf.SetShares([]float64{2, 6}); err != nil {
		t.Error(err)
	}
	sh := stf.Shares()
	if math.Abs(sh[0]-0.25) > 1e-12 || math.Abs(sh[1]-0.75) > 1e-12 {
		t.Errorf("normalized shares = %v", sh)
	}
}

func TestPriorityStarvesLowPriority(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	pr, err := NewPriority([]int{1, 0}) // app 1 has absolute priority
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(dev, 2, 0, pr)
	var served [2]int64
	addr := [2]uint64{0, 1 << 30}
	for cyc := int64(0); cyc < 100_000; cyc++ {
		for app := 0; app < 2; app++ {
			for c.PendingFor(app) < 8 {
				a := app
				c.Access(cyc, &mem.Request{App: app, Addr: addr[app], Done: func(int64) { served[a]++ }})
				addr[app] += 64
			}
		}
		c.Tick(cyc)
	}
	if served[1] == 0 {
		t.Fatal("high-priority app not served")
	}
	// App 1 keeps its queue non-empty the whole time, so app 0 must be
	// fully starved.
	if served[0] != 0 {
		t.Fatalf("low-priority app served %d times despite backlogged high-priority app", served[0])
	}
}

func TestPriorityValidation(t *testing.T) {
	if _, err := NewPriority(nil); err == nil {
		t.Error("empty order accepted")
	}
	if _, err := NewPriority([]int{0, 0}); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := NewPriority([]int{0, 5}); err == nil {
		t.Error("out-of-range accepted")
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	dev := testDevice(t, dram.OpenPage)
	c, _ := New(dev, 2, 0, NewFRFCFS(8))
	cfg := dev.Config()
	var order []string
	mk := func(name string, app int, addr uint64) *mem.Request {
		return &mem.Request{App: app, Addr: addr, Done: func(int64) { order = append(order, name) }}
	}
	// Open a row for app 0 by serving one access, then enqueue: an older
	// row-miss (app 1, same bank different row) and a younger row-hit
	// (app 0). FR-FCFS must serve the row hit first.
	base := uint64(0)
	co := cfg.Decode(base)
	sameRowNext := base + uint64(cfg.LineBytes*cfg.Ranks*cfg.BanksPerRank) // next col, same row/bank
	if c2 := cfg.Decode(sameRowNext); c2.Row != co.Row || cfg.GlobalBank(c2) != cfg.GlobalBank(co) {
		t.Fatalf("address math wrong: %+v vs %+v", co, c2)
	}
	otherRow := base + uint64(cfg.RowBytes*cfg.Ranks*cfg.BanksPerRank) // same bank, next row
	if c3 := cfg.Decode(otherRow); c3.Row == co.Row || cfg.GlobalBank(c3) != cfg.GlobalBank(co) {
		t.Fatalf("address math wrong for other row: %+v vs %+v", co, c3)
	}

	c.Access(0, mk("warm", 0, base))
	cyc := run(c, 0, 1000)
	c.Access(cyc, mk("miss-old", 1, otherRow))
	c.Access(cyc+1, mk("hit-young", 0, sameRowNext))
	run(c, cyc, 5000)
	want := []string{"warm", "hit-young", "miss-old"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestInterferenceCounting(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	c, _ := New(dev, 2, 0, NewFCFS())
	// App 0's request arrives first and occupies bank+bus; app 1's request
	// to the same bank must accumulate interference while waiting.
	c.Access(0, &mem.Request{App: 0, Addr: 0})
	c.Access(1, &mem.Request{App: 1, Addr: 1 << 20}) // same bank (rank/bank bits equal)
	if dev.Config().GlobalBank(dev.Config().Decode(0)) != dev.Config().GlobalBank(dev.Config().Decode(1<<20)) {
		t.Fatal("test setup: want same bank")
	}
	run(c, 0, 5000)
	st := c.Stats()
	if st[1].InterferenceCycles == 0 {
		t.Fatal("app 1 should have recorded interference")
	}
	if st[0].InterferenceCycles != 0 {
		t.Fatalf("app 0 interfered with itself? %d cycles", st[0].InterferenceCycles)
	}
}

func TestNoInterferenceWhenAlone(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	c, _ := New(dev, 1, 0, NewFCFS())
	addr := uint64(0)
	for cyc := int64(0); cyc < 50_000; cyc++ {
		for c.PendingFor(0) < 4 {
			c.Access(cyc, &mem.Request{App: 0, Addr: addr})
			addr += 64
		}
		c.Tick(cyc)
	}
	if got := c.Stats()[0].InterferenceCycles; got != 0 {
		t.Fatalf("alone app recorded %d interference cycles", got)
	}
}

func TestResetStats(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	c, _ := New(dev, 1, 0, NewFCFS())
	c.Access(0, &mem.Request{App: 0, Addr: 0})
	run(c, 0, 2000)
	if c.Stats()[0].Served() != 1 {
		t.Fatal("expected one served")
	}
	c.ResetStats()
	if c.Stats()[0].Served() != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
}

func TestSetSchedulerSwap(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	c, _ := New(dev, 2, 0, NewFCFS())
	if err := c.SetScheduler(nil); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	stf, _ := NewStartTimeFair([]float64{0.5, 0.5})
	if err := c.SetScheduler(stf); err != nil {
		t.Fatal(err)
	}
	if c.Scheduler().Name() != "StartTimeFair" {
		t.Fatalf("scheduler = %s", c.Scheduler().Name())
	}
}

func TestFifoBasics(t *testing.T) {
	var f fifo
	if f.peek() != nil || f.pop() != nil || f.len() != 0 {
		t.Fatal("empty fifo misbehaves")
	}
	es := make([]*Entry, 200)
	for i := range es {
		es[i] = &Entry{seq: int64(i)}
		f.push(es[i])
	}
	for i := range es {
		if f.peek() != es[i] {
			t.Fatalf("peek at %d wrong", i)
		}
		if f.pop() != es[i] {
			t.Fatalf("pop at %d wrong", i)
		}
	}
	if f.len() != 0 {
		t.Fatal("fifo should be empty")
	}
}

func TestFifoInterleavedCompaction(t *testing.T) {
	var f fifo
	seq := int64(0)
	want := int64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 37; i++ {
			f.push(&Entry{seq: seq})
			seq++
		}
		for i := 0; i < 30; i++ {
			e := f.pop()
			if e.seq != want {
				t.Fatalf("pop order broken: got %d, want %d", e.seq, want)
			}
			want++
		}
	}
	for f.len() > 0 {
		e := f.pop()
		if e.seq != want {
			t.Fatalf("drain order broken: got %d, want %d", e.seq, want)
		}
		want++
	}
	if want != seq {
		t.Fatalf("lost entries: drained %d of %d", want, seq)
	}
}

func TestTracerObservesIssues(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	c, _ := New(dev, 2, 0, NewFCFS())
	type rec struct {
		app   int
		addr  uint64
		write bool
	}
	var seen []rec
	c.SetTracer(func(cycle int64, app int, addr uint64, write bool) {
		seen = append(seen, rec{app, addr, write})
	})
	c.Access(0, &mem.Request{App: 0, Addr: 0x40})
	c.Access(1, &mem.Request{App: 1, Addr: 1<<41 + 0x80, Write: true})
	run(c, 0, 5000)
	if len(seen) != 2 {
		t.Fatalf("tracer saw %d issues, want 2", len(seen))
	}
	if seen[0] != (rec{0, 0x40, false}) {
		t.Fatalf("first trace record %+v", seen[0])
	}
	if seen[1] != (rec{1, 1<<41 + 0x80, true}) {
		t.Fatalf("second trace record %+v", seen[1])
	}
	// Clearing the tracer stops observation.
	c.SetTracer(nil)
	c.Access(6000, &mem.Request{App: 0, Addr: 0x40})
	run(c, 6000, 5000)
	if len(seen) != 2 {
		t.Fatal("tracer not cleared")
	}
}
