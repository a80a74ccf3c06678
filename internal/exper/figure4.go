package exper

import (
	"fmt"

	"bwpart/internal/core"
	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// Figure4Scaled reproduces the scalability figure (paper Sec. VI-C: 4, 8,
// 16 cores for 3.2, 6.4, 12.8 GB/s): bandwidth and the number of copies of
// each mix scale together by each factor, and for every objective the table
// holds the mix-average of (optimal scheme / Equal) per scale point. Each
// factor's grid is one RunCells batch of System{Scale: factor} cells, in
// factor order. Rows are keyed by objective name; columns by bandwidth ("3.2
// GB/s").
func (r *Runner) Figure4Scaled(mixes []workload.Mix, factors []int) (*Table, error) {
	// Per scale point the grid is scaled mixes x {Equal, each objective's
	// optimal scheme}.
	objectives := metrics.Objectives()
	schemes := []string{"equal"}
	for _, obj := range objectives {
		sch, err := core.OptimalFor(obj)
		if err != nil {
			return nil, err
		}
		schemes = append(schemes, sch.Name())
	}
	header := []string{"objective (optimal scheme)"}
	avg := make(map[metrics.Objective][]float64, len(objectives))
	for _, obj := range objectives {
		avg[obj] = make([]float64, len(factors))
	}
	for si, factor := range factors {
		scaled := System{Scale: float64(factor)}
		cfg, err := r.SystemConfig(scaled)
		if err != nil {
			return nil, err
		}
		header = append(header, fmt.Sprintf("%.1f GB/s", cfg.Sim.DRAM.PeakBandwidthGBs()))
		var cells []GridCell
		for _, mix := range mixes {
			cells = append(cells, scaled.Grid([]workload.Mix{mix.Scale(factor)}, schemes)...)
		}
		runs, err := r.RunCells(r.baseCtx(), cells, nil)
		if err != nil {
			return nil, err
		}
		for mi := range mixes {
			row := runs[mi*len(schemes):][:len(schemes)]
			for oi, obj := range objectives {
				avg[obj][si] += row[1+oi].Values[obj] / row[0].Values[obj]
			}
		}
		if len(mixes) > 0 {
			for _, obj := range objectives {
				avg[obj][si] /= float64(len(mixes))
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

// AloneAPCScaling measures how each benchmark's standalone APC grows with
// bandwidth — the paper's explanation for why heterogeneity (and thus the
// benefit of optimal partitioning) grows with scale: bandwidth-bound apps
// (lbm) scale their APC_alone much faster than latency-bound ones
// (leslie3d). Every (factor, benchmark) profile fans out as one batch.
func (r *Runner) AloneAPCScaling(names []string, factors []int) (map[string][]float64, error) {
	bases := make([]base, len(factors))
	for i, factor := range factors {
		on, err := r.system(System{Scale: float64(factor)})
		if err != nil {
			return nil, err
		}
		bases[i] = base{on, workload.Mix{Benchmarks: names}}
	}
	if err := r.warmAloneCache(r.baseCtx(), bases); err != nil {
		return nil, err
	}
	out := make(map[string][]float64, len(names))
	for _, b := range bases {
		for _, name := range names {
			ap, err := r.aloneOn(b.on, name)
			if err != nil {
				return nil, err
			}
			out[name] = append(out[name], ap.APKC)
		}
	}
	return out, nil
}
