package exper

import (
	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// HeuristicNames lists the implemented heuristics in citation order.
func HeuristicNames() []string { return []string{"stfm", "parbs", "atlas", "tcm"} }

// RunHeuristics positions the heuristic memory schedulers from the paper's
// related work (STFM, PARBS, ATLAS, TCM) against the model-derived optimal
// schemes: one row per configuration (heuristics, then Equal and the four
// optimal schemes), each objective's value normalized to No_partitioning
// and averaged over the given mixes. The paper's thesis is that heuristics
// improve performance by *implicitly* partitioning bandwidth; the table shows
// how much of the explicitly-optimal gain each heuristic captures.
func (r *Runner) RunHeuristics(mixes []workload.Mix) (*Table, error) {
	configs := append(append([]string{}, HeuristicNames()...),
		"equal", "square-root", "proportional", "priority-apc", "priority-api")
	// Every configuration is a policy, so the study is one grid: the
	// baseline, then each configuration.
	grid := append([]string{NoPartitioning}, configs...)
	runs, err := r.RunGrid(r.baseCtx(), mixes, grid)
	if err != nil {
		return nil, err
	}
	objectives := metrics.Objectives() // the table's column order
	t := newTable("Heuristic schedulers vs model-derived optimal schemes (normalized to No_partitioning)",
		"config", "Hsp", "MinFairness", "Wsp", "IPCsum")
	for ci, cfgName := range configs {
		cells := []cell{txt(cfgName)}
		for _, obj := range objectives {
			// The normalized value accumulates over mixes in mix order.
			var sum float64
			for mi := range mixes {
				row := runs[mi*len(grid):]
				sum += row[1+ci].Values[obj] / row[0].Values[obj]
			}
			cells = append(cells, f3(sum/float64(len(mixes))))
		}
		t.add(cells...)
	}
	t.note("(optimal for each column: square-root, proportional, priority-apc, priority-api)")
	return t, nil
}
