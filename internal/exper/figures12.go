package exper

import (
	"fmt"
	"strings"

	"bwpart/internal/core"
	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// Figure1 reproduces the motivation figure: four objectives under five
// partitioning schemes on the libquantum-milc-gromacs-gobmk workload,
// normalized to No_partitioning. Rows are schemes in legend order.
func (r *Runner) Figure1() (*Table, error) {
	mix := workload.MotivationMix()
	runs, err := r.RunGrid(r.baseCtx(), []workload.Mix{mix}, append([]string{NoPartitioning}, Figure1Schemes()...))
	if err != nil {
		return nil, err
	}
	t := newTable(fmt.Sprintf("Figure 1: normalized performance to No_partitioning (workload: %s)",
		strings.Join(mix.Benchmarks, "-")), "scheme", "Hsp", "MinFairness", "IPCsum", "Wsp")
	for i, scheme := range Figure1Schemes() {
		t.add(append([]cell{txt(scheme)}, normalizedCells(runs[1+i], runs[0],
			metrics.ObjectiveHsp, metrics.ObjectiveMinFairness, metrics.ObjectiveIPCSum, metrics.ObjectiveWsp)...)...)
	}
	return t, nil
}

// normalizedCells is run's value of each objective divided by base's.
func normalizedCells(run, base *MixRun, objs ...metrics.Objective) []cell {
	cells := make([]cell, len(objs))
	for i, obj := range objs {
		cells[i] = f3(run.Values[obj] / base.Values[obj])
	}
	return cells
}

// Figure2 reproduces the main evaluation as one grid (14 mixes x 7
// configurations): one table per objective, sub-figures (a)-(d), with a row
// per workload and the hetero / homo averages (columns are the six schemes
// in legend order, normalized to No_partitioning); then the paper's headline
// gains.
func (r *Runner) Figure2() ([]*Table, error) {
	mixes, schemes := workload.AllMixes(), Figure2Schemes()
	width := 1 + len(schemes)
	runs, err := r.RunGrid(r.baseCtx(), mixes, append([]string{NoPartitioning}, schemes...))
	if err != nil {
		return nil, err
	}
	index := make(map[string]int, len(mixes))
	for mi, mix := range mixes {
		index[mix.Name] = mi
	}
	groups := []struct {
		avg   string
		mixes []workload.Mix
	}{{"hetero-avg", workload.HeteroMixes()}, {"homo-avg", workload.HomoMixes()}}
	var tables []*Table
	for _, s := range []struct {
		label string
		obj   metrics.Objective
	}{
		{"(a) harmonic weighted speedup", metrics.ObjectiveHsp},
		{"(b) minimum fairness", metrics.ObjectiveMinFairness},
		{"(c) weighted speedup", metrics.ObjectiveWsp},
		{"(d) sum of IPCs", metrics.ObjectiveIPCSum},
	} {
		t := newTable("Figure 2"+s.label+": normalized to No_partitioning", append([]string{"workload"}, schemes...)...)
		var avgs [][]cell
		for _, g := range groups {
			sum := make([]float64, len(schemes))
			for _, mix := range g.mixes {
				row := runs[index[mix.Name]*width:]
				cells := []cell{txt(mix.Name)}
				for si := range schemes {
					v := row[1+si].Values[s.obj] / row[0].Values[s.obj]
					sum[si] += v
					cells = append(cells, f3(v))
				}
				t.add(cells...)
			}
			avg := []cell{txt(g.avg)}
			for _, v := range sum {
				avg = append(avg, f3(v/float64(len(g.mixes))))
			}
			avgs = append(avgs, avg)
		}
		for _, avg := range avgs {
			t.add(avg...)
		}
		tables = append(tables, t)
	}
	return append(tables, headline(tables)), nil
}

// headline is the paper's summary comparison, read from the hetero-avg rows
// of Figure 2's four tables (in metrics.Objectives order): each objective's
// optimal scheme against No_partitioning and against Equal, next to the
// paper's numbers.
func headline(fig2 []*Table) *Table {
	paper := map[metrics.Objective][2]float64{
		metrics.ObjectiveHsp:         {0.203, 0.021},
		metrics.ObjectiveMinFairness: {0.498, 0.387},
		metrics.ObjectiveWsp:         {0.328, 0.076},
		metrics.ObjectiveIPCSum:      {0.642, 0.240},
	}
	t := newTable("Headline gains on heterogeneous workloads (optimal scheme vs No_partitioning / Equal):",
		"objective", "scheme", "vs no-part", "paper", "vs equal", "paper")
	for oi, obj := range metrics.Objectives() {
		sch, _ := core.OptimalFor(obj)
		opt, _ := fig2[oi].Value("hetero-avg", sch.Name())
		eq, _ := fig2[oi].Value("hetero-avg", "equal")
		p := paper[obj]
		t.add(txt(obj.String()), txt(sch.Name()), numf("%+.1f%%", 100*(opt-1)), numf("%+.1f%%", 100*p[0]),
			numf("%+.1f%%", 100*(opt/eq-1)), numf("%+.1f%%", 100*p[1]))
	}
	return t
}
