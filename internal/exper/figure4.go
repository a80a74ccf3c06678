package exper

import (
	"fmt"
	"strings"

	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// ScalePoint is one bandwidth/core-count configuration of the scalability
// study: bandwidth and the number of application copies scale together
// (paper Sec. VI-C: 4, 8, 16 cores for 3.2, 6.4, 12.8 GB/s).
type ScalePoint struct {
	Factor int // 1, 2, 4
	GBs    float64
}

// Figure4Result reproduces the scalability figure: for each objective and
// each scale point, the hetero-average of (optimal scheme / Equal).
type Figure4Result struct {
	Points []ScalePoint
	// NormalizedToEqual[objective][scaleIndex]
	NormalizedToEqual map[metrics.Objective][]float64
}

// Figure4 runs the scalability study over the paper's three scale points.
// Mixes: the seven heterogeneous workloads, each replicated Factor times.
func (r *Runner) Figure4() (*Figure4Result, error) {
	return r.figure4(workload.HeteroMixes(), []int{1, 2, 4})
}

// Figure4Scaled allows a custom mix list and scale factors (used by quick
// tests and benchmarks).
func (r *Runner) Figure4Scaled(mixes []workload.Mix, factors []int) (*Figure4Result, error) {
	return r.figure4(mixes, factors)
}

// scaledRunner builds the sub-runner for one bandwidth scale point.
// APC_alone depends on the memory system, so profiles cannot be shared
// across bandwidths. The sub-runner inherits the parent's result cache (its
// configuration is a copy of the parent's), but its scaled DRAM yields a
// different fingerprint, so its cells key separately.
func (r *Runner) scaledRunner(factor int) (*Runner, error) {
	cfg := r.cfg
	cfg.Sim.DRAM = cfg.Sim.DRAM.ScaleBandwidth(float64(factor))
	return NewRunner(cfg)
}

func (r *Runner) figure4(mixes []workload.Mix, factors []int) (*Figure4Result, error) {
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
	out := &Figure4Result{NormalizedToEqual: make(map[metrics.Objective][]float64)}
	for _, obj := range objectives {
		out.NormalizedToEqual[obj] = make([]float64, len(factors))
	}
	for si, factor := range factors {
		sub, err := r.scaledRunner(factor)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, ScalePoint{Factor: factor, GBs: sub.cfg.Sim.DRAM.PeakBandwidthGBs()})
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
				out.NormalizedToEqual[obj][si] += row[1+oi].Values[obj] / row[0].Values[obj]
			}
		}
		if len(scaled) > 0 {
			for _, obj := range objectives {
				out.NormalizedToEqual[obj][si] /= float64(len(scaled))
			}
		}
	}
	return out, nil
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

// Render prints the figure's series.
func (f *Figure4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: optimal scheme normalized to Equal partitioning vs bandwidth scale\n")
	header := []string{"objective (optimal scheme)"}
	for _, p := range f.Points {
		header = append(header, fmt.Sprintf("%.1f GB/s", p.GBs))
	}
	t := newTable(header...)
	rows := []struct {
		label string
		obj   metrics.Objective
	}{
		{"Hsp (square-root)", metrics.ObjectiveHsp},
		{"Wsp (priority-apc)", metrics.ObjectiveWsp},
		{"IPCsum (priority-api)", metrics.ObjectiveIPCSum},
		{"minFairness (proportional)", metrics.ObjectiveMinFairness},
	}
	for _, row := range rows {
		cells := []string{row.label}
		for si := range f.Points {
			cells = append(cells, f3(f.NormalizedToEqual[row.obj][si]))
		}
		t.addRow(cells...)
	}
	b.WriteString(t.String())
	return b.String()
}

// ImprovesWithScale reports whether the normalized gain of the optimal
// scheme grows from the first to the last scale point (the paper's
// scalability claim) for the given objective.
func (f *Figure4Result) ImprovesWithScale(obj metrics.Objective) bool {
	series := f.NormalizedToEqual[obj]
	if len(series) < 2 {
		return false
	}
	return series[len(series)-1] > series[0]
}
