package exper

import (
	"errors"
	"fmt"
	"math"

	"bwpart/internal/core"
	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// SharedL2Study is the shared-L2 extension (paper footnote 1): the model
// extends to a way-partitioned shared L2 by replacing API with API_shared,
// which depends on the capacity share but not on bandwidth partitioning. It
// sweeps L2 way partitions for a mix and checks both claims: per quota and
// app (rows keyed "[quota]/app"), API under equal bandwidth shares next to
// API re-measured under proportional partitioning, plus the partitioned /
// baseline Hsp ratio on each quota's first row and the largest API
// deviation as a note. Each quota is a System{L2Quota}. Phase 2's cells
// depend on phase 1's results, so phase 1 of every quota resolves as one
// RunCells batch, then phase 2 as another.
func (r *Runner) SharedL2Study(mix workload.Mix, quotas [][]int) (*Table, error) {
	if len(quotas) == 0 {
		return nil, errors.New("exper: no quota points")
	}
	// Phase 1: measure API_shared under equal bandwidth shares, so every
	// application makes progress (an unmanaged FCFS baseline can starve
	// the latency-sensitive app outright, leaving nothing to measure).
	equal := make([]GridCell, len(quotas))
	for qi, quota := range quotas {
		if len(quota) != len(mix.Benchmarks) {
			return nil, fmt.Errorf("exper: quota %v for %d apps", quota, len(mix.Benchmarks))
		}
		equal[qi] = GridCell{Mix: mix, Scheme: "equal", System: System{L2Quota: fmt.Sprint(quota)}}
	}
	baseline, err := r.RunCells(r.baseCtx(), equal, nil)
	if err != nil {
		return nil, err
	}
	// Phase 2: apply proportional bandwidth partitioning fed by the
	// measured shared-topology characteristics, and re-measure API: the
	// footnote's invariance claim says it should match.
	partitioned := make([]GridCell, len(quotas))
	for qi, run := range baseline {
		apc := run.Result.APCs()
		for i := range apc {
			if apc[i] <= 0 {
				apc[i] = 1e-6
			}
		}
		shares, err := core.Proportional().Shares(apc)
		if err != nil {
			return nil, err
		}
		partitioned[qi] = GridCell{Mix: mix, Scheme: "start-time-fair", Shares: shares, System: equal[qi].System}
	}
	parts, err := r.RunCells(r.baseCtx(), partitioned, nil)
	if err != nil {
		return nil, err
	}

	t := newTable(fmt.Sprintf("Shared-L2 extension (footnote 1) on %s: API vs way partition", mix.Name),
		"quota", "app", "API (equal shares)", "API (partitioned)", "Hsp part/base")
	worst := 0.0
	for qi, run := range baseline {
		apiShared := run.Result.APIs()
		baselineIPC := run.Result.IPCs()
		part := parts[qi].Result
		apiPart := part.APIs()

		// Hsp of the partitioned run vs the FCFS baseline, using the
		// FCFS run's per-app IPC as a common reference (relative Hsp
		// comparison only needs a consistent normalizer). An app fully
		// starved by the baseline gets a floor so the ratio stays finite.
		ref := make([]float64, len(baselineIPC))
		for i, v := range baselineIPC {
			ref[i] = max(v, 1e-6)
		}
		hspPart, err := metrics.Hsp(part.IPCs(), ref)
		if err != nil {
			return nil, err
		}
		hspBase, err := metrics.Hsp(baselineIPC, ref)
		if err != nil {
			return nil, err
		}
		label := equal[qi].System.L2Quota
		for i, name := range mix.Benchmarks {
			first, hsp := txt(""), txt("")
			if i == 0 {
				first, hsp = txt(label), f3(hspPart/hspBase)
			}
			t.addKeyed(label+"/"+name, first, txt(name),
				numf("%.5f", apiShared[i]), numf("%.5f", apiPart[i]), hsp)
			if d := math.Abs(apiPart[i]-apiShared[i]) / apiShared[i]; apiShared[i] > 0 && d > worst {
				worst = d
			}
		}
	}
	t.note("max API deviation under bandwidth partitioning: %.1f%%", 100*worst)
	return t, nil
}
