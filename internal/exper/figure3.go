package exper

import (
	"fmt"
	"strings"

	"bwpart/internal/core"
	"bwpart/internal/metrics"
	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// QoSTargetIPC is the paper's guarantee for hmmer in Figure 3 ("maintain
// hmmer's IPC at 0.6").
const QoSTargetIPC = 0.6

// Figure3Mix is the outcome of the QoS experiment on one mix.
type Figure3Mix struct {
	Mix workload.Mix
	// GuardedApp is the index of hmmer within the mix.
	GuardedApp int
	// IPCNoPart / IPCQoS: hmmer's IPC without management and under the
	// QoS-guaranteed partitioning.
	IPCNoPart float64
	IPCQoS    float64
	// BestEffortNormalized[objective]: the best-effort group's metric under
	// QoS partitioning with that objective's optimal best-effort scheme,
	// normalized to the same group's metric under No_partitioning.
	BestEffortNormalized map[metrics.Objective]float64
}

// Figure3Result reproduces the QoS-guarantee experiment (paper Sec. VI-B).
type Figure3Result struct {
	Target float64
	Mixes  []Figure3Mix
}

// beObjectives are the three best-effort metrics the paper reports.
func beObjectives() []metrics.Objective {
	return []metrics.Objective{metrics.ObjectiveHsp, metrics.ObjectiveWsp, metrics.ObjectiveIPCSum}
}

// Figure3 runs the QoS experiment on the paper's two mixes.
func (r *Runner) Figure3() (*Figure3Result, error) {
	out := &Figure3Result{Target: QoSTargetIPC}
	mixes := workload.QoSMixes()
	bases, err := r.RunGrid(r.baseCtx(), mixes, []string{NoPartitioning})
	if err != nil {
		return nil, err
	}
	for i, mix := range mixes {
		fm, err := r.runQoSMix(mix, bases[i])
		if err != nil {
			return nil, err
		}
		out.Mixes = append(out.Mixes, *fm)
	}
	return out, nil
}

// runQoSMix runs the QoS-guaranteed partitionings of one mix against its
// No_partitioning run.
func (r *Runner) runQoSMix(mix workload.Mix, base *MixRun) (*Figure3Mix, error) {
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
	fm := &Figure3Mix{
		Mix:                  mix,
		GuardedApp:           guarded,
		IPCNoPart:            base.Result.Apps[guarded].IPC,
		BestEffortNormalized: make(map[metrics.Objective]float64, 3),
	}

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

	var qosIPCSum float64
	var qosIPCSamples int
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
		fm.BestEffortNormalized[obj] = num / den
		qosIPCSum += run.Apps[guarded].IPC
		qosIPCSamples++
	}
	fm.IPCQoS = qosIPCSum / float64(qosIPCSamples)
	return fm, nil
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

// Render prints the figure's two groups of bars.
func (f *Figure3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: QoS guarantee (hmmer target IPC = %.2f)\n", f.Target)
	t := newTable("mix", "hmmer IPC no-part", "hmmer IPC QoS",
		"BE Hsp (norm)", "BE Wsp (norm)", "BE IPCsum (norm)")
	for _, m := range f.Mixes {
		t.addRow(m.Mix.Name, f3(m.IPCNoPart), f3(m.IPCQoS),
			f3(m.BestEffortNormalized[metrics.ObjectiveHsp]),
			f3(m.BestEffortNormalized[metrics.ObjectiveWsp]),
			f3(m.BestEffortNormalized[metrics.ObjectiveIPCSum]))
	}
	b.WriteString(t.String())
	return b.String()
}
