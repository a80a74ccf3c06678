package profile

import (
	"math"
	"testing"

	"bwpart/internal/memctrl"
	"bwpart/internal/sim"
)

func TestEstimateBasic(t *testing.T) {
	// 100 accesses over 1000 cycles, 500 of them interference: the app
	// alone would have needed 500 cycles -> APC_alone = 0.2.
	got, err := Estimate(100, 1000, 500)
	if err != nil || math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("Estimate = %v, %v; want 0.2", got, err)
	}
}

func TestEstimateNoInterferenceEqualsShared(t *testing.T) {
	got, err := Estimate(50, 1000, 0)
	if err != nil || math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("Estimate = %v, %v; want 0.05", got, err)
	}
}

func TestEstimateClampsFullInterference(t *testing.T) {
	got, err := Estimate(10, 1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
		t.Fatalf("Estimate not clamped: %v", got)
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := Estimate(1, 0, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := Estimate(1, 100, -1); err == nil {
		t.Error("negative interference accepted")
	}
}

func TestEstimateAll(t *testing.T) {
	stats := []memctrl.AppStats{
		{Reads: 80, Writes: 20, InterferenceCycles: 500},
		{Reads: 10, Writes: 0, InterferenceCycles: 0},
	}
	got, err := EstimateAll(window(1000, stats...))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-0.2) > 1e-12 || math.Abs(got[1]-0.01) > 1e-12 {
		t.Fatalf("EstimateAll = %v", got)
	}
	if _, err := EstimateAll(window(0, stats...)); err == nil {
		t.Error("zero window accepted")
	}
}

func TestTrackerValidation(t *testing.T) {
	if _, err := NewTracker(0, 0.5); err == nil {
		t.Error("zero apps accepted")
	}
	if _, err := NewTracker(1, 0); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := NewTracker(1, 1.5); err == nil {
		t.Error("alpha > 1 accepted")
	}
}

func TestTrackerFirstEpochUnsmoothed(t *testing.T) {
	tr, err := NewTracker(1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	est, err := tr.Update(window(1000, memctrl.AppStats{Reads: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est[0]-0.1) > 1e-12 {
		t.Fatalf("first epoch = %v, want raw 0.1", est[0])
	}
}

func TestTrackerSmoothing(t *testing.T) {
	tr, _ := NewTracker(1, 0.5)
	tr.Update(window(1000, memctrl.AppStats{Reads: 100}))           // 0.1
	est, _ := tr.Update(window(1000, memctrl.AppStats{Reads: 300})) // raw 0.3
	want := 0.5*0.3 + 0.5*0.1
	if math.Abs(est[0]-want) > 1e-12 {
		t.Fatalf("smoothed = %v, want %v", est[0], want)
	}
}

func TestTrackerLengthMismatch(t *testing.T) {
	tr, _ := NewTracker(2, 0.5)
	if _, err := tr.Update(window(1000, memctrl.AppStats{})); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestTrackerEstimatesIsCopy(t *testing.T) {
	tr, _ := NewTracker(1, 1)
	tr.Update(window(1000, memctrl.AppStats{Reads: 100}))
	e := tr.Estimates()
	e[0] = 99
	if tr.Estimates()[0] == 99 {
		t.Fatal("Estimates aliases internal state")
	}
}

// window is a measurement window of the given length over the given
// controller counters, one application each.
func window(cycles int64, ctrl ...memctrl.AppStats) sim.Counters {
	w := sim.Counters{Cycles: cycles}
	for _, c := range ctrl {
		w.Apps = append(w.Apps, sim.AppCounters{Ctrl: c})
	}
	return w
}
