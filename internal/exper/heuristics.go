package exper

import (
	"fmt"
	"strings"

	"bwpart/internal/memctrl"
	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// HeuristicStudy positions the heuristic memory schedulers from the
// paper's related work (STFM, PARBS, ATLAS, TCM) against the model-derived
// optimal partitioning schemes: for each objective it reports the
// hetero-average normalized value of every heuristic next to the optimal
// scheme's. The paper's thesis is that heuristics improve performance by
// *implicitly* partitioning bandwidth; this experiment shows how much of
// the explicitly-optimal gain each heuristic captures.
type HeuristicStudy struct {
	// Normalized[configName][objective]: hetero-average vs No_partitioning.
	Normalized map[string]map[metrics.Objective]float64
	Configs    []string
}

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

// RunHeuristics evaluates the heuristics plus the four optimal schemes on
// the given mixes, all normalized to No_partitioning and averaged.
func (r *Runner) RunHeuristics(mixes []workload.Mix) (*HeuristicStudy, error) {
	configs := append(append([]string{}, HeuristicNames()...),
		"equal", "square-root", "proportional", "priority-apc", "priority-api")
	out := &HeuristicStudy{
		Normalized: make(map[string]map[metrics.Objective]float64),
		Configs:    configs,
	}
	for _, cfgName := range configs {
		out.Normalized[cfgName] = make(map[metrics.Objective]float64, 4)
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
			for _, obj := range metrics.Objectives() {
				out.Normalized[cfgName][obj] += row[1+si].Values[obj] / base.Values[obj]
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
			for _, obj := range metrics.Objectives() {
				v, err := obj.Eval(res.IPCs(), ipcAlone)
				if err != nil {
					return nil, err
				}
				out.Normalized[h][obj] += v / base.Values[obj]
			}
		}
	}
	for _, vals := range out.Normalized {
		for obj := range vals {
			vals[obj] /= float64(len(mixes))
		}
	}
	return out, nil
}

// Render prints the comparison table.
func (h *HeuristicStudy) Render() string {
	var b strings.Builder
	b.WriteString("Heuristic schedulers vs model-derived optimal schemes (normalized to No_partitioning)\n")
	t := newTable("config", "Hsp", "MinFairness", "Wsp", "IPCsum")
	for _, cfgName := range h.Configs {
		v := h.Normalized[cfgName]
		t.addRow(cfgName, f3(v[metrics.ObjectiveHsp]), f3(v[metrics.ObjectiveMinFairness]),
			f3(v[metrics.ObjectiveWsp]), f3(v[metrics.ObjectiveIPCSum]))
	}
	b.WriteString(t.String())
	b.WriteString("(optimal for each column: square-root, proportional, priority-apc, priority-api)\n")
	return b.String()
}

// CapturedFraction returns, for an objective, the fraction of the optimal
// scheme's gain over No_partitioning that a heuristic captures
// ((h-1)/(opt-1); can exceed 1 or go negative).
func (h *HeuristicStudy) CapturedFraction(heuristic string, obj metrics.Objective) (float64, error) {
	optName, err := optimalSchemeName(obj)
	if err != nil {
		return 0, err
	}
	hv, ok := h.Normalized[heuristic]
	if !ok {
		return 0, fmt.Errorf("exper: unknown heuristic %q", heuristic)
	}
	opt := h.Normalized[optName][obj]
	if opt == 1 {
		return 0, fmt.Errorf("exper: optimal gain is zero for %v", obj)
	}
	return (hv[obj] - 1) / (opt - 1), nil
}
