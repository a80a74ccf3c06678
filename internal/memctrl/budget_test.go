package memctrl

import (
	"math"
	"math/rand"
	"testing"

	"bwpart/internal/dram"
	"bwpart/internal/mem"
)

func TestBudgetThrottleValidation(t *testing.T) {
	if _, err := NewBudgetThrottle(nil, 1000); err == nil {
		t.Error("empty shares accepted")
	}
	if _, err := NewBudgetThrottle([]float64{0.5, 0}, 1000); err == nil {
		t.Error("zero share accepted")
	}
	for _, bad := range nonFiniteShares() {
		if _, err := NewBudgetThrottle(bad, 1000); err == nil {
			t.Errorf("NewBudgetThrottle(%v) accepted", bad)
		}
	}
	if _, err := NewBudgetThrottle([]float64{1, 1}, 0); err == nil {
		t.Error("zero period accepted")
	}
}

func TestBudgetThrottleReplenishGridAnchored(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	period := int64(10_000)
	bt, err := NewBudgetThrottle([]float64{0.5, 0.5}, period)
	if err != nil {
		t.Fatal(err)
	}
	anchor := int64(1_234)
	bt.replenish(anchor, dev) // first replenish sets the grid anchor
	if bt.periodEnd != anchor+period {
		t.Fatalf("first periodEnd = %d, want %d", bt.periodEnd, anchor+period)
	}
	full := bt.budget[0]
	if full <= 0 {
		t.Fatalf("budget not filled: %v", bt.budget)
	}

	// A mid-period call must not replenish.
	bt.budget[0] = full / 4
	bt.replenish(anchor+period/2, dev)
	if bt.periodEnd != anchor+period || bt.budget[0] != full/4 {
		t.Fatalf("mid-period call replenished: end %d budget %v", bt.periodEnd, bt.budget[0])
	}

	// Late arrival after an idle gap spanning several periods: budgets
	// refill, and the next boundary is still anchor + k*period — before the
	// fix it became now + period, shifting the grid by the gap's phase.
	late := anchor + 5*period + 3_333
	bt.replenish(late, dev)
	if want := anchor + 6*period; bt.periodEnd != want {
		t.Fatalf("period grid drifted: end %d, want %d (now %d)", bt.periodEnd, want, late)
	}
	if bt.budget[0] != full {
		t.Fatalf("late replenish did not refill: %v, want %v", bt.budget[0], full)
	}

	// An exactly-on-boundary call advances one whole period.
	bt.replenish(anchor+6*period, dev)
	if want := anchor + 7*period; bt.periodEnd != want {
		t.Fatalf("boundary call: end %d, want %d", bt.periodEnd, want)
	}
}

func TestBudgetThrottleEnforcesShares(t *testing.T) {
	dev := testDevice(t, dram.ClosePage)
	bt, err := NewBudgetThrottle([]float64{0.7, 0.3}, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(dev, 2, 0, bt)
	r := rand.New(rand.NewSource(1))
	var served [2]int64
	addr := [2]uint64{0, 1 << 41}
	for cyc := int64(0); cyc < 400_000; cyc++ {
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
	if math.Abs(frac-0.7) > 0.05 {
		t.Fatalf("enforced fraction %.3f, want 0.7 +/- 0.05", frac)
	}
}

func TestBudgetThrottleWorkConserving(t *testing.T) {
	// Only the low-share app has work: it must receive full service via
	// the over-budget path.
	dev := testDevice(t, dram.ClosePage)
	bt, _ := NewBudgetThrottle([]float64{0.9, 0.1}, 10_000)
	c, _ := New(dev, 2, 0, bt)
	r := rand.New(rand.NewSource(2))
	var served int64
	addr := uint64(1 << 41)
	for cyc := int64(0); cyc < 200_000; cyc++ {
		for c.PendingFor(1) < 8 {
			c.Access(cyc, &mem.Request{App: 1, Addr: addr, Done: func(int64) { served++ }})
			addr += uint64(64 * (1 + r.Intn(16)))
		}
		c.Tick(cyc)
	}
	// Bus capacity over 200k cycles at 100 cycles/burst is ~2000 accesses;
	// a non-work-conserving throttler would cap app 1 at ~200.
	if served < 1500 {
		t.Fatalf("throttler not work conserving: served %d", served)
	}
}

func TestBudgetThrottleBurstyWithinPeriod(t *testing.T) {
	// With both apps backlogged, the low-share app's service clusters at
	// period starts: verify its budget actually depletes (served count in
	// the first half of a period exceeds the second half).
	dev := testDevice(t, dram.ClosePage)
	period := int64(40_000)
	bt, _ := NewBudgetThrottle([]float64{0.9, 0.1}, period)
	c, _ := New(dev, 2, 0, bt)
	r := rand.New(rand.NewSource(3))
	addr := [2]uint64{0, 1 << 41}
	var firstHalf, secondHalf int64
	for cyc := int64(0); cyc < 10*period; cyc++ {
		for app := 0; app < 2; app++ {
			for c.PendingFor(app) < 8 {
				a := app
				cy := cyc
				c.Access(cyc, &mem.Request{App: app, Addr: addr[app], Done: func(int64) {
					if a == 1 {
						if cy%period < period/2 {
							firstHalf++
						} else {
							secondHalf++
						}
					}
				}})
				addr[app] += uint64(64 * (1 + r.Intn(16)))
			}
		}
		c.Tick(cyc)
	}
	if firstHalf+secondHalf == 0 {
		t.Fatal("low-share app never served")
	}
	if firstHalf <= secondHalf {
		t.Fatalf("expected front-loaded service within periods: first %d, second %d", firstHalf, secondHalf)
	}
}
