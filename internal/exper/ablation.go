package exper

import (
	"bwpart/internal/core"
	"bwpart/internal/metrics"
	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// The ablations below probe the design choices DESIGN.md calls out: the
// DRAM page policy (the paper fixes close-page; FR-FCFS over open-page is
// the classic utilization-oriented alternative) and the enforcement
// mechanism for priority schemes (strict priority vs share-based
// enforcement of the same model allocation).

// PagePolicyStudy compares the close-page FCFS baseline against open-page
// FR-FCFS on the given mixes: IPC sum and bus utilization under each, one
// row per mix. FR-FCFS is the bandwidth-utilization optimization the
// paper's related work discusses (Rixner et al.): it should recover row
// hits on streaming workloads. The close-page half is the runner's own
// No_partitioning cells, the open-page half fr-fcfs cells on the open-page
// System; both resolve as one batch.
func (r *Runner) PagePolicyStudy(mixes []workload.Mix) (*Table, error) {
	cells := Grid(mixes, []string{NoPartitioning})
	for _, mix := range mixes {
		cells = append(cells, GridCell{Mix: mix, Scheme: "fr-fcfs", System: System{OpenPage: true}})
	}
	runs, err := r.RunCells(r.baseCtx(), cells, nil)
	if err != nil {
		return nil, err
	}
	t := newTable("Ablation: close-page FCFS vs open-page FR-FCFS",
		"workload", "IPCsum close", "IPCsum open", "busUtil close", "busUtil open")
	for i, mix := range mixes {
		closeRes, openRes := runs[i].Result, runs[len(mixes)+i].Result
		t.add(txt(mix.Name), f3(ipcSum(closeRes)), f3(ipcSum(openRes)),
			f2(closeRes.BusUtilization), f2(openRes.BusUtilization))
	}
	return t, nil
}

func ipcSum(res sim.Result) float64 {
	var s float64
	for _, a := range res.Apps {
		s += a.IPC
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// MechanismStudy enforces the Square_root scheme via start-time-fair
// queueing (the square-root cell) and via per-period budget throttling of
// the same shares on the given mixes and compares the achieved Hsp, one row
// per mix. The model prescribes *allocations*; this ablation shows the
// hardware mechanism realizing them is interchangeable.
func (r *Runner) MechanismStudy(mixes []workload.Mix) (*Table, error) {
	stf, err := r.RunGrid(r.baseCtx(), mixes, []string{"square-root"})
	if err != nil {
		return nil, err
	}
	cells := make([]GridCell, len(mixes))
	for i, mix := range mixes {
		shares, err := core.SquareRoot().Shares(stf[i].APCAlone)
		if err != nil {
			return nil, err
		}
		cells[i] = GridCell{Mix: mix, Scheme: "budget", Shares: shares}
	}
	budget, err := r.RunCells(r.baseCtx(), cells, nil)
	if err != nil {
		return nil, err
	}
	t := newTable("Ablation: start-time-fair vs budget-throttle enforcement of square-root shares",
		"workload", "objective", "STF", "budget", "budget/STF")
	obj := metrics.ObjectiveHsp
	for i, mix := range mixes {
		stfVal, btVal := stf[i].Values[obj], budget[i].Values[obj]
		t.add(txt(mix.Name), txt(obj.String()), f3(stfVal), f3(btVal), f3(ratio(btVal, stfVal)))
	}
	return t, nil
}

// EnforcementStudy measures, for the two priority schemes, how much of the
// objective value depends on *strict* priority scheduling versus merely
// enforcing the model's allocation via fair-queueing shares. The strict runs
// are the priority scheme cells; the share runs are start-time-fair cells
// over the allocation each scheme makes of the strict run's throughput. Rows
// are keyed "mix/objective".
func (r *Runner) EnforcementStudy(mixes []workload.Mix) (*Table, error) {
	cases := []struct {
		obj    metrics.Objective
		scheme *core.PriorityScheme
	}{
		{metrics.ObjectiveWsp, core.PriorityAPC()},
		{metrics.ObjectiveIPCSum, core.PriorityAPI()},
	}
	schemes := make([]string, len(cases))
	for ci, cse := range cases {
		schemes[ci] = cse.scheme.Name()
	}
	strict, err := r.RunGrid(r.baseCtx(), mixes, schemes)
	if err != nil {
		return nil, err
	}
	shareCells := make([]GridCell, len(strict))
	for i, run := range strict {
		alloc, err := cases[i%len(cases)].scheme.Allocate(run.APCAlone, run.API, run.Result.TotalAPC)
		if err != nil {
			return nil, err
		}
		shares := make([]float64, len(alloc))
		for j, x := range alloc {
			shares[j] = max(x, 1e-6)
		}
		shareCells[i] = GridCell{Mix: run.Mix, Scheme: "start-time-fair", Shares: shares}
	}
	shared, err := r.RunCells(r.baseCtx(), shareCells, nil)
	if err != nil {
		return nil, err
	}
	t := newTable("Ablation: strict-priority vs share-based enforcement of priority allocations",
		"workload", "objective", "strict", "shares", "strict/shares")
	for i := range strict {
		mix, obj := mixes[i/len(cases)], cases[i%len(cases)].obj
		strictVal, shareVal := strict[i].Values[obj], shared[i].Values[obj]
		t.addKeyed(mix.Name+"/"+obj.String(), txt(mix.Name), txt(obj.String()),
			f3(strictVal), f3(shareVal), f3(ratio(strictVal, shareVal)))
	}
	return t, nil
}
