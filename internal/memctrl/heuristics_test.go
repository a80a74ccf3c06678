package memctrl

import (
	"math/rand"
	"testing"

	"bwpart/internal/dram"
	"bwpart/internal/mem"
)

func TestHeuristicConstructorsValidate(t *testing.T) {
	if _, err := NewSTFM(0, 1.1); err == nil {
		t.Error("STFM zero apps accepted")
	}
	if _, err := NewSTFM(2, 0.9); err == nil {
		t.Error("STFM alpha < 1 accepted")
	}
	if _, err := NewATLAS(0, 1000, 0.8); err == nil {
		t.Error("ATLAS zero apps accepted")
	}
	if _, err := NewATLAS(2, 0, 0.8); err == nil {
		t.Error("ATLAS zero quantum accepted")
	}
	if _, err := NewATLAS(2, 1000, 1.0); err == nil {
		t.Error("ATLAS decay 1.0 accepted")
	}
	if _, err := NewTCM(0, 1000, 100, 0.2, 1); err == nil {
		t.Error("TCM zero apps accepted")
	}
	if _, err := NewTCM(2, 0, 100, 0.2, 1); err == nil {
		t.Error("TCM zero quantum accepted")
	}
	if _, err := NewTCM(2, 1000, 100, 1.5, 1); err == nil {
		t.Error("TCM share > 1 accepted")
	}
	if _, err := NewPARBS(0, 5); err == nil {
		t.Error("PARBS zero apps accepted")
	}
	if _, err := NewPARBS(2, 0); err == nil {
		t.Error("PARBS zero cap accepted")
	}
}

// driveMixed runs a 2-app scenario: app 0 light (intermittent), app 1 heavy
// (always backlogged). Returns per-app served counts.
func driveMixed(t *testing.T, sched Scheduler, cycles int64) [2]int64 {
	t.Helper()
	dev := testDevice(t, dram.ClosePage)
	c, err := New(dev, 2, 0, sched)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	var served [2]int64
	addr := [2]uint64{0, 1 << 41}
	push := func(app int, cyc int64) {
		a := app
		c.Access(cyc, &mem.Request{App: app, Addr: addr[app], Done: func(int64) { served[a]++ }})
		addr[app] += uint64(64 * (1 + r.Intn(8)))
	}
	for cyc := int64(0); cyc < cycles; cyc++ {
		// Light app: one request every ~400 cycles.
		if cyc%400 == 0 && c.PendingFor(0) < 2 {
			push(0, cyc)
		}
		for c.PendingFor(1) < 8 {
			push(1, cyc)
		}
		c.Tick(cyc)
	}
	return served
}

func TestHeuristicsServeBothClasses(t *testing.T) {
	mk := map[string]func() Scheduler{
		"stfm": func() Scheduler { s, _ := NewSTFM(2, 1.1); return s },
		"atlas": func() Scheduler {
			s, _ := NewATLAS(2, 50_000, 0.875)
			return s
		},
		"tcm": func() Scheduler {
			s, _ := NewTCM(2, 50_000, 4_000, 0.25, 1)
			return s
		},
		"parbs": func() Scheduler { s, _ := NewPARBS(2, 5); return s },
	}
	for name, f := range mk {
		served := driveMixed(t, f(), 200_000)
		if served[0] == 0 || served[1] == 0 {
			t.Errorf("%s: starved a class entirely: %v", name, served)
		}
		// The light app issues ~500 requests; a reasonable scheduler serves
		// most of them.
		if served[0] < 300 {
			t.Errorf("%s: light app served only %d times", name, served[0])
		}
		// The heavy app must still get the bulk of the bandwidth.
		if served[1] < served[0] {
			t.Errorf("%s: heavy app served less than light app: %v", name, served)
		}
	}
}

func TestATLASFavorsLeastAttained(t *testing.T) {
	// Give app 0 a huge attained-service head start; app 1's first request
	// must win the next contended pick.
	dev := testDevice(t, dram.ClosePage)
	a, _ := NewATLAS(2, 1_000_000, 0.875)
	c, _ := New(dev, 2, 0, a)
	var order []int
	mk := func(app int) *mem.Request {
		return &mem.Request{App: app, Addr: uint64(app)<<41 + 64, Done: func(int64) { order = append(order, app) }}
	}
	// Prime ATLAS state.
	c.Access(0, mk(0))
	for cyc := int64(0); cyc < 2000; cyc++ {
		c.Tick(cyc)
	}
	// Now both contend (different banks, both issuable).
	c.Access(2000, &mem.Request{App: 0, Addr: 2 << 20, Done: func(int64) { order = append(order, 0) }})
	c.Access(2000, &mem.Request{App: 1, Addr: 1<<41 + 3<<20, Done: func(int64) { order = append(order, 1) }})
	for cyc := int64(2000); cyc < 6000; cyc++ {
		c.Tick(cyc)
	}
	if len(order) != 3 {
		t.Fatalf("served %d requests, want 3", len(order))
	}
	if order[1] != 1 {
		t.Fatalf("ATLAS should serve the zero-service app first: order %v", order)
	}
}

func TestPARBSBatchRanksShortestFirst(t *testing.T) {
	// App 0 has 1 queued request, app 1 has 5: within the batch, app 0
	// (shortest) ranks first.
	dev := testDevice(t, dram.ClosePage)
	p, _ := NewPARBS(2, 5)
	c, _ := New(dev, 2, 0, p)
	var order []int
	add := func(app int, addr uint64) {
		c.Access(0, &mem.Request{App: app, Addr: addr, Done: func(int64) { order = append(order, app) }})
	}
	for i := 0; i < 5; i++ {
		add(1, 1<<41+uint64(i)*4<<20) // arrive first
	}
	add(0, 2<<20) // arrives last, but shortest job
	for cyc := int64(0); cyc < 30_000; cyc++ {
		c.Tick(cyc)
	}
	if len(order) != 6 {
		t.Fatalf("served %d, want 6", len(order))
	}
	if order[0] != 0 {
		t.Fatalf("PARBS should rank the 1-request app first: order %v", order)
	}
}

func TestTCMLatencyClusterPriority(t *testing.T) {
	// After a clustering quantum, the low-usage app belongs to the latency
	// cluster and wins contended picks.
	dev := testDevice(t, dram.ClosePage)
	tcm, _ := NewTCM(2, 20_000, 5_000, 0.25, 1)
	c, _ := New(dev, 2, 0, tcm)
	r := rand.New(rand.NewSource(9))
	var served [2]int64
	addr := [2]uint64{0, 1 << 41}
	for cyc := int64(0); cyc < 150_000; cyc++ {
		if cyc%500 == 0 && c.PendingFor(0) < 2 {
			a := 0
			c.Access(cyc, &mem.Request{App: 0, Addr: addr[0], Done: func(int64) { served[a]++ }})
			addr[0] += 64 * uint64(1+r.Intn(8))
		}
		for c.PendingFor(1) < 8 {
			c.Access(cyc, &mem.Request{App: 1, Addr: addr[1], Done: func(int64) { served[1]++ }})
			addr[1] += 64 * uint64(1+r.Intn(8))
		}
		c.Tick(cyc)
	}
	// The light app should get essentially all of its ~300 requests served.
	if served[0] < 250 {
		t.Fatalf("latency-cluster app under-served: %v", served)
	}
	// And its interference should be far below the heavy app's demand
	// pressure (sanity only).
	st := c.stats
	if st[0].Served() == 0 || st[1].Served() == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestSTFMPrioritizesSlowedApp(t *testing.T) {
	// Heavy interference on app 0 should eventually trigger STFM's
	// prioritization and keep its slowdown bounded vs plain FCFS.
	run := func(sched Scheduler) int64 {
		dev := testDevice(t, dram.ClosePage)
		c, _ := New(dev, 2, 0, sched)
		r := rand.New(rand.NewSource(4))
		var served [2]int64
		addr := [2]uint64{0, 1 << 41}
		for cyc := int64(0); cyc < 200_000; cyc++ {
			if c.PendingFor(0) < 2 && cyc%350 == 0 {
				a := 0
				c.Access(cyc, &mem.Request{App: 0, Addr: addr[0], Done: func(int64) { served[a]++ }})
				addr[0] += 64 * uint64(1+r.Intn(8))
			}
			for c.PendingFor(1) < 8 {
				c.Access(cyc, &mem.Request{App: 1, Addr: addr[1], Done: func(int64) { served[1]++ }})
				addr[1] += 64 * uint64(1+r.Intn(8))
			}
			c.Tick(cyc)
		}
		return c.stats[0].InterferenceCycles
	}
	stfm, _ := NewSTFM(2, 1.05)
	interfSTFM := run(stfm)
	interfFCFS := run(NewFCFS())
	if interfSTFM >= interfFCFS {
		t.Fatalf("STFM did not reduce the slowed app's interference: %d vs FCFS %d", interfSTFM, interfFCFS)
	}
}
