package exper

import (
	"fmt"

	"bwpart/internal/core"
	"bwpart/internal/metrics"
	"bwpart/internal/sim"
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
// the same group under No_partitioning. Rows are keyed by mix.
func (r *Runner) Figure3() (*Table, error) {
	mixes := workload.QoSMixes()
	bases, err := r.RunGrid(r.baseCtx(), mixes, []string{NoPartitioning})
	if err != nil {
		return nil, err
	}
	t := newTable(fmt.Sprintf("Figure 3: QoS guarantee (hmmer target IPC = %.2f)", QoSTargetIPC),
		"mix", "hmmer IPC no-part", "hmmer IPC QoS", "BE Hsp (norm)", "BE Wsp (norm)", "BE IPCsum (norm)")
	for i, mix := range mixes {
		cells, err := r.runQoSMix(mix, bases[i])
		if err != nil {
			return nil, err
		}
		t.add(append([]cell{txt(mix.Name)}, cells...)...)
	}
	return t, nil
}

// runQoSMix runs the QoS-guaranteed partitionings of one mix against its
// No_partitioning run and returns the figure's cells for it.
func (r *Runner) runQoSMix(mix workload.Mix, base *MixRun) ([]cell, error) {
	guarded := -1
	for i, b := range mix.Benchmarks {
		if b == "hmmer" {
			guarded = i
		}
	}
	if guarded < 0 {
		return nil, fmt.Errorf("exper: mix %s has no hmmer to guard", mix.Name)
	}
	apcAlone, api, ipcAlone := base.APCAlone, base.API, base.IPCAlone

	beIdx := make([]int, 0, len(mix.Benchmarks)-1)
	for i := range mix.Benchmarks {
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
	beAlone := subset(ipcAlone)

	// Use the throughput the unmanaged system actually sustains as B: the
	// share a guarantee needs is relative to deliverable service, not the
	// theoretical bus peak.
	b := base.Result.TotalAPC
	guarantees := []core.Guarantee{{App: guarded, TargetIPC: r.qosTarget(apcAlone[guarded], api[guarded])}}

	var beCells []cell
	var qosIPCSum float64
	for _, obj := range beObjectives() {
		scheme, err := core.OptimalFor(obj)
		if err != nil {
			return nil, err
		}
		alloc, err := core.QoSAllocate(scheme, apcAlone, api, b, guarantees)
		if err != nil {
			return nil, err
		}
		run, err := r.runWithShares(mix, alloc.APCShared)
		if err != nil {
			return nil, err
		}
		shared := subset(run.IPCs())
		num, err := obj.Eval(shared, beAlone)
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

// runWithShares simulates the mix with an explicit APC allocation enforced
// as start-time-fair shares, forking the mix's shared warm base when
// memoization is on (a cold system otherwise).
func (r *Runner) runWithShares(mix workload.Mix, apcTargets []float64) (sim.Result, error) {
	shares := make([]float64, len(apcTargets))
	var total float64
	for _, x := range apcTargets {
		total += x
	}
	for i, x := range apcTargets {
		shares[i] = x / total
		if shares[i] < 1e-6 {
			// STF needs strictly positive rates; a starved best-effort app
			// keeps a vanishing share.
			shares[i] = 1e-6
		}
	}
	return r.runConfigured(mix, func(sys *sim.System) error {
		return sys.ApplyShares(shares)
	})
}
