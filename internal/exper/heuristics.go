package exper

import (
	"bwpart/internal/memctrl"
	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// heuristicFactories builds fresh scheduler instances per run (stateful
// policies must not leak state across mixes).
func heuristicFactories(numApps int, seed int64) map[string]func() (memctrl.Scheduler, error) {
	return map[string]func() (memctrl.Scheduler, error){
		"stfm": func() (memctrl.Scheduler, error) { return memctrl.NewSTFM(numApps, 1.10) },
		"atlas": func() (memctrl.Scheduler, error) {
			return memctrl.NewATLAS(numApps, 100_000, 0.875)
		},
		"tcm": func() (memctrl.Scheduler, error) {
			return memctrl.NewTCM(numApps, 100_000, 8_000, 0.25, seed)
		},
		"parbs": func() (memctrl.Scheduler, error) { return memctrl.NewPARBS(numApps, 5) },
	}
}

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
	objectives := metrics.Objectives() // the table's column order
	// sum[config][oi] accumulates the normalized values over mixes.
	sum := make(map[string][]float64, len(configs))
	for _, cfgName := range configs {
		sum[cfgName] = make([]float64, len(objectives))
	}
	// Scheme configurations are one grid: the baseline, then each scheme.
	schemes := append([]string{NoPartitioning}, configs[len(HeuristicNames()):]...)
	runs, err := r.RunGrid(r.baseCtx(), mixes, schemes)
	if err != nil {
		return nil, err
	}
	for mi, mix := range mixes {
		row := runs[mi*len(schemes) : (mi+1)*len(schemes)]
		base, ipcAlone := row[0], row[0].IPCAlone
		for si, cfgName := range schemes[1:] {
			for oi, obj := range objectives {
				sum[cfgName][oi] += row[1+si].Values[obj] / base.Values[obj]
			}
		}
		// Heuristic configurations install the scheduler directly, starting
		// from the same warm checkpoint the scheme cells above shared.
		for _, h := range HeuristicNames() {
			mk := heuristicFactories(len(mix.Benchmarks), r.cfg.Seed)[h]
			sched, err := mk()
			if err != nil {
				return nil, err
			}
			res, err := r.runSched(mix, sched)
			if err != nil {
				return nil, err
			}
			for oi, obj := range objectives {
				v, err := obj.Eval(res.IPCs(), ipcAlone)
				if err != nil {
					return nil, err
				}
				sum[h][oi] += v / base.Values[obj]
			}
		}
	}
	t := newTable("Heuristic schedulers vs model-derived optimal schemes (normalized to No_partitioning)",
		"config", "Hsp", "MinFairness", "Wsp", "IPCsum")
	for _, cfgName := range configs {
		cells := []cell{txt(cfgName)}
		for _, v := range sum[cfgName] {
			cells = append(cells, f3(v/float64(len(mixes))))
		}
		t.add(cells...)
	}
	t.note("(optimal for each column: square-root, proportional, priority-apc, priority-api)")
	return t, nil
}
