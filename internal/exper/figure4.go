package exper

import (
	"fmt"

	"bwpart/internal/metrics"
	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// Figure4Scaled reproduces the scalability figure (paper Sec. VI-C: 4, 8,
// 16 cores for 3.2, 6.4, 12.8 GB/s): bandwidth and the number of copies of
// each mix scale together by each factor, and for every objective the table
// holds the mix-average of (optimal scheme / Equal) per scale point. Each
// factor's grid is one RunGrid on that factor's scaled runner, in factor
// order. Rows are keyed by objective name; columns by bandwidth ("3.2 GB/s").
func (r *Runner) Figure4Scaled(mixes []workload.Mix, factors []int) (*Table, error) {
	// Per scale point the grid is scaled mixes x {Equal, each objective's
	// optimal scheme}.
	objectives := metrics.Objectives()
	schemes := []string{"equal"}
	for _, obj := range objectives {
		name, err := optimalSchemeName(obj)
		if err != nil {
			return nil, err
		}
		schemes = append(schemes, name)
	}
	header := []string{"objective (optimal scheme)"}
	// avg[obj][si] is obj's mix-average at scale point si.
	avg := make(map[metrics.Objective][]float64, len(objectives))
	for _, obj := range objectives {
		avg[obj] = make([]float64, len(factors))
	}
	for si, factor := range factors {
		sub, err := r.scaledRunner(factor)
		if err != nil {
			return nil, err
		}
		header = append(header, fmt.Sprintf("%.1f GB/s", sub.cfg.Sim.DRAM.PeakBandwidthGBs()))
		scaled := make([]workload.Mix, len(mixes))
		for mi, mix := range mixes {
			scaled[mi] = mix.Scale(factor)
		}
		runs, err := sub.RunGrid(r.baseCtx(), scaled, schemes)
		if err != nil {
			return nil, err
		}
		for mi := range scaled {
			row := runs[mi*len(schemes) : (mi+1)*len(schemes)]
			for oi, obj := range objectives {
				avg[obj][si] += row[1+oi].Values[obj] / row[0].Values[obj]
			}
		}
		if len(scaled) > 0 {
			for _, obj := range objectives {
				avg[obj][si] /= float64(len(scaled))
			}
		}
	}
	t := newTable("Figure 4: optimal scheme normalized to Equal partitioning vs bandwidth scale", header...)
	for _, row := range []struct {
		label string
		obj   metrics.Objective
	}{
		{"Hsp (square-root)", metrics.ObjectiveHsp},
		{"Wsp (priority-apc)", metrics.ObjectiveWsp},
		{"IPCsum (priority-api)", metrics.ObjectiveIPCSum},
		{"minFairness (proportional)", metrics.ObjectiveMinFairness},
	} {
		cells := []cell{txt(row.label)}
		for _, v := range avg[row.obj] {
			cells = append(cells, f3(v))
		}
		t.addKeyed(row.obj.String(), cells...)
	}
	return t, nil
}

// derived builds a sub-runner whose simulator configuration is the parent's
// changed by edit: a bandwidth scale point of Figure 4, the open-page
// ablation, a way quota of the shared-L2 study. APC_alone depends on the
// simulated system, so it profiles alone and warms bases under its own
// configuration. It inherits the parent's result cache, checkpoint store and
// collector, and its cells key under its own fingerprint.
func (r *Runner) derived(edit func(*sim.Config)) (*Runner, error) {
	cfg := r.cfg
	edit(&cfg.Sim)
	return NewRunner(cfg)
}

// scaledRunner is the derived runner for one bandwidth scale point.
func (r *Runner) scaledRunner(factor int) (*Runner, error) {
	return r.derived(func(c *sim.Config) { c.DRAM = c.DRAM.ScaleBandwidth(float64(factor)) })
}

// AloneAPCScaling measures how each benchmark's standalone APC grows with
// bandwidth — the paper's explanation for why heterogeneity (and thus the
// benefit of optimal partitioning) grows with scale: bandwidth-bound apps
// (lbm) scale their APC_alone much faster than latency-bound ones
// (leslie3d).
func (r *Runner) AloneAPCScaling(names []string, factors []int) (map[string][]float64, error) {
	out := make(map[string][]float64, len(names))
	for _, factor := range factors {
		sub, err := r.scaledRunner(factor)
		if err != nil {
			return nil, err
		}
		if err := sub.warmAloneCache(r.baseCtx(), names); err != nil {
			return nil, err
		}
		for _, name := range names {
			ap, err := sub.Alone(name)
			if err != nil {
				return nil, err
			}
			out[name] = append(out[name], ap.APKC)
		}
	}
	return out, nil
}
