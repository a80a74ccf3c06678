// Package profile implements the paper's online APC_alone estimation
// (Sec. IV-C). Three counters per application — served accesses, shared-run
// cycles, and memory interference cycles — yield an estimate of the access
// rate the application would sustain running alone:
//
//	T_cyc,alone = T_cyc,shared - T_cyc,interference   (Eq. 13)
//	APC_alone   = N_accesses / T_cyc,alone            (Eq. 12)
//
// The estimate is approximate (the paper says as much); its role is to seed
// the partitioning schemes without ever running applications alone.
package profile

import (
	"errors"

	"bwpart/internal/sim"
)

// Estimate applies Eq. 12/13 to one application's counters.
func Estimate(accesses, cyclesShared, cyclesInterference int64) (float64, error) {
	if cyclesShared <= 0 {
		return 0, errors.New("profile: non-positive shared cycle count")
	}
	if cyclesInterference < 0 {
		return 0, errors.New("profile: negative interference count")
	}
	alone := cyclesShared - cyclesInterference
	if alone <= 0 {
		// Fully interference-bound window: clamp to one cycle of progress
		// so the estimate stays finite (the paper's estimator is an
		// approximation; a zero denominator has no physical reading).
		alone = 1
	}
	return float64(accesses) / float64(alone), nil
}

// EstimateAll applies the estimator to every application's controller
// counters over a measurement window (sim.System.WindowInto).
func EstimateAll(w sim.Counters) ([]float64, error) {
	if w.Cycles <= 0 {
		return nil, errors.New("profile: non-positive window")
	}
	out := make([]float64, len(w.Apps))
	for i, a := range w.Apps {
		est, err := Estimate(a.Ctrl.Served(), w.Cycles, a.Ctrl.InterferenceCycles)
		if err != nil {
			return nil, err
		}
		out[i] = est
	}
	return out, nil
}

// Tracker accumulates per-epoch estimates with exponential smoothing, the
// usual way an online profiler damps noise between repartitioning
// intervals.
type Tracker struct {
	alpha float64
	est   []float64
	init  []bool
}

// NewTracker builds a tracker for n applications with smoothing factor
// alpha in (0, 1]; alpha = 1 keeps only the latest epoch.
func NewTracker(n int, alpha float64) (*Tracker, error) {
	if n <= 0 {
		return nil, errors.New("profile: need at least one app")
	}
	if alpha <= 0 || alpha > 1 {
		return nil, errors.New("profile: alpha must be in (0,1]")
	}
	return &Tracker{alpha: alpha, est: make([]float64, n), init: make([]bool, n)}, nil
}

// Update folds one epoch's window into the smoothed estimates and returns
// the current values.
func (t *Tracker) Update(w sim.Counters) ([]float64, error) {
	if len(w.Apps) != len(t.est) {
		return nil, errors.New("profile: stats length mismatch")
	}
	fresh, err := EstimateAll(w)
	if err != nil {
		return nil, err
	}
	for i, f := range fresh {
		if !t.init[i] {
			t.est[i] = f
			t.init[i] = true
		} else {
			t.est[i] = t.alpha*f + (1-t.alpha)*t.est[i]
		}
	}
	return t.Estimates(), nil
}

// Estimates returns a copy of the current smoothed estimates.
func (t *Tracker) Estimates() []float64 {
	out := make([]float64, len(t.est))
	copy(out, t.est)
	return out
}
