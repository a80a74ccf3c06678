package exper

import (
	"fmt"
	"slices"

	"bwpart/internal/core"
	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// QoSTargetIPC is the paper's guarantee for hmmer in Figure 3 ("maintain
// hmmer's IPC at 0.6").
const QoSTargetIPC = 0.6

// beObjectives are the three best-effort metrics the paper reports.
func beObjectives() []metrics.Objective {
	return []metrics.Objective{metrics.ObjectiveHsp, metrics.ObjectiveWsp, metrics.ObjectiveIPCSum}
}

// Figure3 reproduces the QoS-guarantee experiment (paper Sec. VI-B) on the
// paper's two mixes: hmmer's IPC without management and under the
// QoS-guaranteed partitioning, and the best-effort group's Hsp, Wsp and
// IPCsum under each objective's optimal best-effort scheme, normalized to
// the same group under No_partitioning. Each QoS-guaranteed partitioning is
// a start-time-fair cell over its allocation. Rows are keyed by mix.
func (r *Runner) Figure3() (*Table, error) {
	mixes := workload.QoSMixes()
	bases, err := r.RunGrid(r.baseCtx(), mixes, []string{NoPartitioning})
	if err != nil {
		return nil, err
	}
	guarded := make([]int, len(mixes))
	var cells []GridCell
	for i, mix := range mixes {
		guarded[i] = slices.Index(mix.Benchmarks, "hmmer")
		if guarded[i] < 0 {
			return nil, fmt.Errorf("exper: mix %s has no hmmer to guard", mix.Name)
		}
		qos, err := r.qosCells(bases[i], guarded[i])
		if err != nil {
			return nil, err
		}
		cells = append(cells, qos...)
	}
	runs, err := r.RunCells(r.baseCtx(), cells, nil)
	if err != nil {
		return nil, err
	}
	t := newTable(fmt.Sprintf("Figure 3: QoS guarantee (hmmer target IPC = %.2f)", QoSTargetIPC),
		"mix", "hmmer IPC no-part", "hmmer IPC QoS", "BE Hsp (norm)", "BE Wsp (norm)", "BE IPCsum (norm)")
	per := len(beObjectives())
	for i, mix := range mixes {
		cells, err := qosRow(bases[i], runs[i*per:(i+1)*per], guarded[i])
		if err != nil {
			return nil, err
		}
		t.add(append([]cell{txt(mix.Name)}, cells...)...)
	}
	return t, nil
}

// qosCells are one mix's QoS-guaranteed partitionings, one per best-effort
// objective: the guarded app's target is reserved and the rest split by the
// objective's optimal scheme, enforced as start-time-fair shares.
func (r *Runner) qosCells(base *MixRun, guarded int) ([]GridCell, error) {
	apcAlone, api := base.APCAlone, base.API
	// Use the throughput the unmanaged system actually sustains as B: the
	// share a guarantee needs is relative to deliverable service, not the
	// theoretical bus peak.
	b := base.Result.TotalAPC
	guarantees := []core.Guarantee{{App: guarded, TargetIPC: r.qosTarget(apcAlone[guarded], api[guarded])}}
	var cells []GridCell
	for _, obj := range beObjectives() {
		scheme, err := core.OptimalFor(obj)
		if err != nil {
			return nil, err
		}
		alloc, err := core.QoSAllocate(scheme, apcAlone, api, b, guarantees)
		if err != nil {
			return nil, err
		}
		var total float64
		for _, x := range alloc.APCShared {
			total += x
		}
		shares := make([]float64, len(alloc.APCShared))
		for i, x := range alloc.APCShared {
			// STF needs strictly positive rates; a starved best-effort app
			// keeps a vanishing share.
			shares[i] = max(x/total, 1e-6)
		}
		cells = append(cells, GridCell{Mix: base.Mix, Scheme: "start-time-fair", Shares: shares})
	}
	return cells, nil
}

// qosRow is the figure's cells for one mix: its No_partitioning run and its
// QoS-guaranteed runs in beObjectives order.
func qosRow(base *MixRun, runs []*MixRun, guarded int) ([]cell, error) {
	beIdx := make([]int, 0, len(base.Mix.Benchmarks)-1)
	for i := range base.Mix.Benchmarks {
		if i != guarded {
			beIdx = append(beIdx, i)
		}
	}
	subset := func(xs []float64) []float64 {
		out := make([]float64, len(beIdx))
		for k, i := range beIdx {
			out[k] = xs[i]
		}
		return out
	}
	baseShared := subset(base.Result.IPCs())
	beAlone := subset(base.IPCAlone)

	var beCells []cell
	var qosIPCSum float64
	for oi, obj := range beObjectives() {
		run := runs[oi].Result
		num, err := obj.Eval(subset(run.IPCs()), beAlone)
		if err != nil {
			return nil, err
		}
		den, err := obj.Eval(baseShared, beAlone)
		if err != nil {
			return nil, err
		}
		beCells = append(beCells, f3(num/den))
		qosIPCSum += run.Apps[guarded].IPC
	}
	ipcQoS := qosIPCSum / float64(len(beCells))
	return append([]cell{f3(base.Result.Apps[guarded].IPC), f3(ipcQoS)}, beCells...), nil
}

// qosTarget clamps the paper's 0.6 target to what the application can
// physically reach alone (the paper chose 0.6 empirically for the same
// reason).
func (r *Runner) qosTarget(apcAlone, api float64) float64 {
	aloneIPC := apcAlone / api
	if QoSTargetIPC > aloneIPC*0.95 {
		return aloneIPC * 0.95
	}
	return QoSTargetIPC
}
