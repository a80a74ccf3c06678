package memctrl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bwpart/internal/dram"
	"bwpart/internal/mem"
)

// TestBandwidthConservation: completed accesses can never exceed the bus
// capacity of the elapsed window (window / burst cycles per access),
// whatever the scheduler.
func TestBandwidthConservation(t *testing.T) {
	schedulers := []func() Scheduler{
		func() Scheduler { return NewFCFS() },
		func() Scheduler { s, _ := NewStartTimeFair([]float64{0.5, 0.3, 0.2}); return s },
		func() Scheduler { s, _ := NewPriority([]int{2, 1, 0}); return s },
		func() Scheduler { return NewFRFCFS(4) },
	}
	for si, mk := range schedulers {
		dev := testDevice(t, dram.ClosePage)
		c, err := New(dev, 3, 0, mk())
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(si + 1)))
		addr := [3]uint64{0, 1 << 41, 2 << 41}
		window := int64(200_000)
		for cyc := int64(0); cyc < window; cyc++ {
			for app := 0; app < 3; app++ {
				for c.PendingFor(app) < 6 {
					c.Access(cyc, &mem.Request{App: app, Addr: addr[app]})
					addr[app] += uint64(64 * (1 + r.Intn(8)))
				}
			}
			c.Tick(cyc)
		}
		var served int64
		for _, st := range c.stats {
			served += st.Served()
		}
		maxPossible := window / dev.Timing().Burst
		if served > maxPossible {
			t.Errorf("scheduler %d: served %d accesses, bus capacity %d", si, served, maxPossible)
		}
		if served < maxPossible/2 {
			t.Errorf("scheduler %d: served only %d of %d possible (work conservation broken?)", si, served, maxPossible)
		}
	}
}

// TestInterferenceBoundedByWindow: per-app interference cycles can never
// exceed the window length.
func TestInterferenceBoundedByWindow(t *testing.T) {
	f := func(seed int64) bool {
		dev := testDevice(t, dram.ClosePage)
		c, err := New(dev, 2, 0, NewFCFS())
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		addr := [2]uint64{0, 1 << 41}
		window := int64(20_000)
		for cyc := int64(0); cyc < window; cyc++ {
			for app := 0; app < 2; app++ {
				if c.PendingFor(app) < 4 && r.Intn(3) > 0 {
					c.Access(cyc, &mem.Request{App: app, Addr: addr[app]})
					addr[app] += uint64(64 * (1 + r.Intn(4)))
				}
			}
			c.Tick(cyc)
		}
		for _, st := range c.stats {
			if st.InterferenceCycles > window {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerSwapMidRunKeepsRequests: swapping policies with a full queue
// must not lose or duplicate completions.
func TestSchedulerSwapMidRunKeepsRequests(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	c, _ := New(dev, 2, 0, NewFCFS())
	var done int64
	total := 0
	r := rand.New(rand.NewSource(5))
	addr := [2]uint64{0, 1 << 41}
	push := func(app int, cyc int64) {
		c.Access(cyc, &mem.Request{App: app, Addr: addr[app], Done: func(int64) { done++ }})
		addr[app] += uint64(64 * (1 + r.Intn(4)))
		total++
	}
	for cyc := int64(0); cyc < 60_000; cyc++ {
		if cyc < 30_000 {
			for app := 0; app < 2; app++ {
				if c.PendingFor(app) < 4 {
					push(app, cyc)
				}
			}
		}
		switch cyc {
		case 10_000:
			stf, _ := NewStartTimeFair([]float64{0.9, 0.1})
			if err := c.SetScheduler(stf); err != nil {
				t.Fatal(err)
			}
		case 20_000:
			pr, _ := NewPriority([]int{1, 0})
			if err := c.SetScheduler(pr); err != nil {
				t.Fatal(err)
			}
		}
		c.Tick(cyc)
	}
	if done != int64(total) {
		t.Fatalf("completed %d of %d requests across scheduler swaps", done, total)
	}
	if c.queued != 0 || len(c.completions) != 0 {
		t.Fatal("controller not drained")
	}
}

// TestStartTimeFairSharesSweep: enforced service fractions track configured
// shares across a range of splits (both apps saturating, diverse banks).
func TestStartTimeFairSharesSweep(t *testing.T) {
	for _, share0 := range []float64{0.2, 0.4, 0.6, 0.8} {
		dev := testDevice(t, dram.ClosePage)
		stf, _ := NewStartTimeFair([]float64{share0, 1 - share0})
		c, _ := New(dev, 2, 0, stf)
		r := rand.New(rand.NewSource(int64(share0 * 100)))
		var served [2]int64
		addr := [2]uint64{0, 1 << 41}
		for cyc := int64(0); cyc < 300_000; cyc++ {
			for app := 0; app < 2; app++ {
				for c.PendingFor(app) < 8 {
					a := app
					c.Access(cyc, &mem.Request{App: app, Addr: addr[app], Done: func(int64) { served[a]++ }})
					addr[app] += uint64(64 * (1 + r.Intn(16)))
				}
			}
			c.Tick(cyc)
		}
		frac := float64(served[0]) / float64(served[0]+served[1])
		if frac < share0-0.05 || frac > share0+0.05 {
			t.Errorf("share %.1f: enforced fraction %.3f", share0, frac)
		}
	}
}
