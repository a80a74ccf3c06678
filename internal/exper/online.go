package exper

import (
	"errors"
	"fmt"

	"bwpart/internal/core"
	"bwpart/internal/metrics"
	"bwpart/internal/profile"
	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// OnlineResult is the outcome of running a scheme with the paper's
// deployable implementation: APC_alone is never measured by running apps
// alone; it is estimated every epoch from the three online counters
// (N_accesses, T_cyc,shared, T_cyc,interference, Sec. IV-C) and the
// partitioning is refreshed at every epoch boundary. It stays a typed result
// because IntervalStudy reads its objective values and estimator error.
type OnlineResult struct {
	Mix    workload.Mix
	Scheme string
	Epochs int
	// EstimatedAPCAlone is the final smoothed online estimate per app.
	EstimatedAPCAlone []float64
	// OracleAPCAlone is the run-alone measurement, for estimator accuracy.
	OracleAPCAlone []float64
	// Values holds the objectives over the final measurement window.
	Values map[metrics.Objective]float64
	Result sim.Result
}

// RunOnline executes mix under scheme using online profiling with the
// given epoch length and count. The first epoch runs unpartitioned (FCFS)
// to gather initial estimates, mirroring the paper's profile-then-partition
// methodology; each later epoch repartitions from the latest estimates.
func (r *Runner) RunOnline(mix workload.Mix, scheme string, epochCycles int64, epochs int) (*OnlineResult, error) {
	if epochCycles <= 0 || epochs < 2 {
		return nil, errors.New("exper: online runs need positive epoch length and at least 2 epochs")
	}
	profs, err := mix.Profiles()
	if err != nil {
		return nil, err
	}
	sch, err := core.ByName(scheme)
	if err != nil {
		return nil, err
	}
	apcOracle, _, ipcAlone, err := r.aloneVectors(mix)
	if err != nil {
		return nil, err
	}

	sys, err := sim.New(r.cfg.Sim, profs)
	if err != nil {
		return nil, err
	}
	sys.Warmup()
	if err := sys.ApplyNoPartitioning(); err != nil {
		return nil, err
	}
	tracker, err := profile.NewTracker(len(profs), 0.5)
	if err != nil {
		return nil, err
	}

	out := &OnlineResult{
		Mix:            mix,
		Scheme:         scheme,
		Epochs:         epochs,
		OracleAPCAlone: apcOracle,
		Values:         make(map[metrics.Objective]float64, 4),
	}
	var est []float64
	var win sim.Counters // reused across epochs; the tracker never retains it
	var apiBuf []float64 // reused across epochs
	for e := 0; e < epochs; e++ {
		sys.ResetStats()
		sys.Run(epochCycles)
		sys.WindowInto(&win)
		est, err = tracker.Update(win)
		if err != nil {
			return nil, err
		}
		// API from the same window (it is partitioning-invariant). The epoch
		// loop only needs the API vector, not a full Result — APIsInto skips
		// the bandwidth/energy bookkeeping and reuses the buffer.
		apiBuf = sys.APIsInto(apiBuf)
		apis := apiBuf
		for i := range apis {
			if apis[i] <= 0 {
				// A starved app retired too little to estimate API; fall
				// back to its profile-derived value so the next epoch can
				// lift it out of starvation.
				apis[i] = profs[i].TableAPKI / 1000
			}
			if est[i] <= 0 {
				est[i] = 1e-6
			}
		}
		if err := sys.ApplyScheme(sch, est, apis); err != nil {
			return nil, err
		}
	}
	// Final measurement window under the converged partitioning.
	sys.ResetStats()
	sys.Run(r.cfg.MeasureCycles)
	res := sys.Results()
	out.Result = res
	out.EstimatedAPCAlone = est
	shared := res.IPCs()
	for _, obj := range metrics.Objectives() {
		v, err := obj.Eval(shared, ipcAlone)
		if err != nil {
			return nil, fmt.Errorf("exper: online %s/%s: %w", mix.Name, scheme, err)
		}
		out.Values[obj] = v
	}
	return out, nil
}

// EstimatorError returns the mean relative error of the final online
// APC_alone estimates against the run-alone oracle.
func (o *OnlineResult) EstimatorError() float64 {
	if len(o.EstimatedAPCAlone) == 0 {
		return 0
	}
	var sum float64
	for i := range o.EstimatedAPCAlone {
		d := o.EstimatedAPCAlone[i] - o.OracleAPCAlone[i]
		if d < 0 {
			d = -d
		}
		sum += d / o.OracleAPCAlone[i]
	}
	return sum / float64(len(o.EstimatedAPCAlone))
}

// Table lays out the estimates next to the oracle, one row per app, with
// the mean estimator error as a note.
func (o *OnlineResult) Table() *Table {
	t := newTable(fmt.Sprintf("Online profiling run: %s under %s (%d epochs)", o.Mix.Name, o.Scheme, o.Epochs),
		"app", "APC_alone est", "APC_alone oracle")
	for i, name := range o.Mix.Benchmarks {
		t.add(txt(name), numf("%.5f", o.EstimatedAPCAlone[i]), numf("%.5f", o.OracleAPCAlone[i]))
	}
	t.note("mean relative estimator error: %.1f%%", 100*o.EstimatorError())
	return t
}
