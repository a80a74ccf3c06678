package exper

import (
	"fmt"
	"math"
	"strings"

	"bwpart/internal/core"
	"bwpart/internal/profile"
	"bwpart/internal/sim"
)

// runEpochs is an online cell's settle window. The first epoch runs
// unpartitioned (the policy installed FCFS) to gather initial estimates,
// mirroring the paper's profile-then-partition methodology; every epoch ends
// by repartitioning under sch from the estimates, smoothed with α = 0.5. An
// app that retired nothing in an epoch takes its profile-derived API, so the
// next epoch can lift it out of starvation.
func runEpochs(sys *sim.System, sch core.Scheme, a policyArgs) ([]float64, error) {
	fallback := make([]float64, len(a.profs))
	for i, p := range a.profs {
		fallback[i] = p.TableAPKI / 1000
	}
	loop, err := newEpochLoop(sch, a.cell.Epoch, 0.5, fallback)
	if err != nil {
		return nil, err
	}
	var est []float64
	for e := 0; e < a.cell.Epochs; e++ {
		if est, err = loop.step(sys); err != nil {
			return nil, err
		}
	}
	return est, nil
}

// epochLoop is the online repartitioning loop of Sec. IV-C, which the online
// cells and the phase study share, each with its own smoothing and its own
// API fallback.
type epochLoop struct {
	sch      core.Scheme
	cycles   int64
	tracker  *profile.Tracker
	fallback []float64    // the API of an app that retired nothing in an epoch
	win      sim.Counters // reused across epochs; the tracker never retains it
	apis     []float64    // reused across epochs
}

// newEpochLoop builds a loop of cycles-long epochs repartitioning under sch,
// one app per entry of fallback, with smoothing factor alpha (1 keeps only
// the latest epoch's estimates).
func newEpochLoop(sch core.Scheme, cycles int64, alpha float64, fallback []float64) (*epochLoop, error) {
	tracker, err := profile.NewTracker(len(fallback), alpha)
	if err != nil {
		return nil, err
	}
	return &epochLoop{sch: sch, cycles: cycles, tracker: tracker, fallback: fallback}, nil
}

// step runs one epoch on sys: it marks the window, runs it, folds the
// window's counters into the estimates, reads the window's API vector (it is
// partitioning-invariant) and repartitions from both. It returns the
// estimates it repartitioned from, non-positive ones clamped to 1e-6.
func (l *epochLoop) step(sys *sim.System) ([]float64, error) {
	sys.ResetStats()
	sys.Run(l.cycles)
	sys.WindowInto(&l.win)
	est, err := l.tracker.Update(l.win)
	if err != nil {
		return nil, err
	}
	l.apis = sys.APIsInto(l.apis)
	for i := range est {
		if est[i] <= 0 {
			est[i] = 1e-6
		}
		if l.apis[i] <= 0 {
			l.apis[i] = l.fallback[i]
		}
	}
	return est, sys.ApplyScheme(l.sch, est, l.apis)
}

// EstimatorError returns the mean relative error of an online cell's final
// APC_alone estimates against the run-alone oracle (APCAlone); 0 for a cell
// that estimated nothing.
func (run *MixRun) EstimatorError() float64 {
	if len(run.EstimatedAPCAlone) == 0 {
		return 0
	}
	var sum float64
	for i, est := range run.EstimatedAPCAlone {
		sum += math.Abs(est-run.APCAlone[i]) / run.APCAlone[i]
	}
	return sum / float64(len(run.EstimatedAPCAlone))
}

// onlineTable lays an online cell's estimates out next to the oracle, one
// row per app, with the mean estimator error as a note.
func onlineTable(run *MixRun) *Table {
	t := newTable(fmt.Sprintf("Online profiling run: %s under %s (%d epochs)", run.Mix.Name, strings.TrimPrefix(run.Scheme, onlinePrefix), run.Epochs),
		"app", "APC_alone est", "APC_alone oracle")
	for i, name := range run.Mix.Benchmarks {
		t.add(txt(name), numf("%.5f", run.EstimatedAPCAlone[i]), numf("%.5f", run.APCAlone[i]))
	}
	t.note("mean relative estimator error: %.1f%%", 100*run.EstimatorError())
	return t
}
