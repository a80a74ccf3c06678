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
// splitmix64 mixer, so adjacent base seeds never share derived seeds (which
// would understate run-to-run variation).
func subSeed(base int64, i int) int64 {
	return int64(xrand.Mix(uint64(base), uint64(i)+1))
}

// Repeatability quantifies simulation run-to-run variation for one (mix,
// scheme): it runs under `seeds` different seeds and reports mean, standard
// deviation and RSD (in percent) per objective, rows keyed by objective
// name. Workload generators are the only stochastic element; this study
// backs EXPERIMENTS.md's claim that the paper's orderings are stable across
// seeds. Each seed is a System{Seed}, so alone profiles are re-measured under
// that seed too, and the seeds resolve as one RunCells batch.
func (r *Runner) Repeatability(mix workload.Mix, scheme string, seeds int) (*Table, error) {
	if seeds < 2 {
		return nil, errors.New("exper: repeatability needs at least 2 seeds")
	}
	cells := make([]GridCell, seeds)
	for i := range cells {
		cells[i] = GridCell{Mix: mix, Scheme: scheme, System: System{Seed: subSeed(r.cfg.Seed, i)}}
	}
	results, err := r.RunCells(r.baseCtx(), cells, nil)
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
