package exper

import (
	"errors"
	"fmt"

	"bwpart/internal/core"
	"bwpart/internal/metrics"
	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// SharedL2Study is the shared-L2 extension (paper footnote 1): the model
// extends to a way-partitioned shared L2 by replacing API with API_shared,
// which depends on the capacity share but not on bandwidth partitioning. It
// sweeps L2 way partitions for a mix and checks both claims: per quota and
// app (rows keyed "[quota]/app"), API under equal bandwidth shares next to
// API re-measured under proportional partitioning, plus the partitioned /
// baseline Hsp ratio on each quota's first row and the largest API
// deviation as a note.
func (r *Runner) SharedL2Study(mix workload.Mix, quotas [][]int) (*Table, error) {
	if len(quotas) == 0 {
		return nil, errors.New("exper: no quota points")
	}
	t := newTable(fmt.Sprintf("Shared-L2 extension (footnote 1) on %s: API vs way partition", mix.Name),
		"quota", "app", "API (equal shares)", "API (partitioned)", "Hsp part/base")
	worst := 0.0
	for _, quota := range quotas {
		if len(quota) != len(mix.Benchmarks) {
			return nil, fmt.Errorf("exper: quota %v for %d apps", quota, len(mix.Benchmarks))
		}
		sub, err := r.derived(func(c *sim.Config) {
			c.SharedL2 = true
			c.L2WayQuota = quota
			// A 512 KB shared L2: small enough that a single way (64 KB)
			// cannot hold an application's L2-resident working set, so the
			// capacity share visibly moves API — the effect the footnote
			// describes.
			c.L2.SizeBytes = 512 << 10
		})
		if err != nil {
			return nil, err
		}
		// Phase 1: measure API_shared under equal bandwidth shares, so every
		// application makes progress (an unmanaged FCFS baseline can starve
		// the latency-sensitive app outright, leaving nothing to measure).
		base, err := sub.RunMix(mix, "equal")
		if err != nil {
			return nil, err
		}
		apiShared := base.Result.APIs()
		baselineIPC := base.Result.IPCs()

		// Phase 2: apply proportional bandwidth partitioning fed by the
		// measured shared-topology characteristics, and re-measure API: the
		// footnote's invariance claim says it should match.
		apc := base.Result.APCs()
		for i := range apc {
			if apc[i] <= 0 {
				apc[i] = 1e-6
			}
		}
		shares, err := core.Proportional().Shares(apc)
		if err != nil {
			return nil, err
		}
		partRun, err := sub.lookup(GridCell{Mix: mix, Scheme: "start-time-fair", Shares: shares}, true)
		if err != nil {
			return nil, err
		}
		part := partRun.Result
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
		label := fmt.Sprintf("%v", quota)
		for i, name := range mix.Benchmarks {
			first, hsp := txt(""), txt("")
			if i == 0 {
				first, hsp = txt(label), f3(hspPart/hspBase)
			}
			t.addKeyed(label+"/"+name, first, txt(name),
				numf("%.5f", apiShared[i]), numf("%.5f", apiPart[i]), hsp)
			if apiShared[i] > 0 {
				d := (apiPart[i] - apiShared[i]) / apiShared[i]
				if d < 0 {
					d = -d
				}
				if d > worst {
					worst = d
				}
			}
		}
	}
	t.note("max API deviation under bandwidth partitioning: %.1f%%", 100*worst)
	return t, nil
}
