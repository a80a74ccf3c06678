package exper

import (
	"errors"
	"fmt"

	"bwpart/internal/mathx"
	"bwpart/internal/metrics"
	"bwpart/internal/workload"
	"bwpart/internal/xrand"
)

// subSeed derives the i-th sub-study seed from a base seed through a
// splitmix64 mixer. Adjacent base seeds must not produce overlapping
// derived sets — the old base+i derivation made seed bases 1 and 2 share
// all but one of their runs, silently understating run-to-run variation.
func subSeed(base int64, i int) int64 {
	return int64(xrand.Mix(uint64(base), uint64(i)+1))
}

// Repeatability quantifies simulation run-to-run variation for one (mix,
// scheme): it runs under `seeds` different seeds and reports mean, standard
// deviation and RSD (in percent) per objective, rows keyed by objective
// name. Workload generators are the only stochastic element; this study
// backs EXPERIMENTS.md's claim that the paper's orderings are stable across
// seeds. Each seed gets its own runner so alone profiles are re-measured
// under that seed too.
func (r *Runner) Repeatability(mix workload.Mix, scheme string, seeds int) (*Table, error) {
	if seeds < 2 {
		return nil, errors.New("exper: repeatability needs at least 2 seeds")
	}
	// Each per-seed runner inherits the parent's result cache via the config
	// copy; distinct seeds fingerprint distinctly, so nothing collides. The
	// seed cells already resident are read first, as runCells does, so a
	// repeated study over the same seeds is all hits and dispatches no job.
	subs := make([]*Runner, seeds)
	results := make([]*MixRun, seeds)
	var missing []int
	for i := range subs {
		cfg := r.cfg
		cfg.Seed = subSeed(r.cfg.Seed, i)
		sub, err := NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		subs[i] = sub
		switch run, err := sub.lookup(GridCell{Mix: mix, Scheme: scheme}, false); {
		case err == nil:
			results[i] = run
		case errors.Is(err, errNotResident):
			missing = append(missing, i)
		default:
			return nil, err
		}
	}
	err := runJobs(r.baseCtx(), r.parallelism(), r.cfg.Obs, len(missing), func(k int) error {
		i := missing[k]
		run, err := subs[i].RunMix(mix, scheme)
		results[i] = run
		return err
	})
	if err != nil {
		return nil, err
	}
	t := newTable(fmt.Sprintf("Run-to-run variation: %s under %s over %d seeds", mix.Name, scheme, seeds),
		"objective", "mean", "std", "RSD")
	for _, obj := range metrics.Objectives() {
		values := make([]float64, len(results))
		for i, run := range results {
			values[i] = run.Values[obj]
		}
		mean, std, err := mathx.MeanStd(values)
		if err != nil {
			return nil, err
		}
		rsd := 0.0
		if mean != 0 {
			rsd = 100 * std / mean
		}
		t.add(txt(obj.String()), f3(mean), numf("%.4f", std), numf("%.1f%%", rsd))
	}
	return t, nil
}
