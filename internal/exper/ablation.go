package exper

import (
	"bwpart/internal/core"
	"bwpart/internal/dram"
	"bwpart/internal/memctrl"
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
// hits on streaming workloads.
func (r *Runner) PagePolicyStudy(mixes []workload.Mix) (*Table, error) {
	t := newTable("Ablation: close-page FCFS vs open-page FR-FCFS",
		"workload", "IPCsum close", "IPCsum open", "busUtil close", "busUtil open")
	for _, mix := range mixes {
		profs, err := mix.Profiles()
		if err != nil {
			return nil, err
		}
		// Close page + FCFS (the paper's baseline): the runner's own
		// configuration, so it can fork the mix's shared warm base.
		closeRes, err := r.runSched(mix, memctrl.NewFCFS())
		if err != nil {
			return nil, err
		}
		// Open page + FR-FCFS.
		openCfg := r.cfg.Sim
		openCfg.DRAM.Policy = dram.OpenPage
		openRes, err := r.runRaw(openCfg, profs, setScheduler(memctrl.NewFRFCFS(8)))
		if err != nil {
			return nil, err
		}
		t.add(txt(mix.Name), f3(ipcSum(closeRes)), f3(ipcSum(openRes)),
			f2(closeRes.BusUtilization), f2(openRes.BusUtilization))
	}
	return t, nil
}

// runRaw measures profs on a cold system built from simCfg: functional
// warmup, then apply and the shared settle + measure tail. Studies that change
// the simulator configuration itself (the open-page ablation, the shared-L2
// topology) must use it — their systems cannot share the runner's warm bases;
// mix-level studies under the runner's own configuration go through
// runConfigured, which can.
func (r *Runner) runRaw(simCfg sim.Config, profs []workload.Profile, apply func(sys *sim.System) error) (sim.Result, error) {
	sys, err := sim.New(simCfg, profs)
	if err != nil {
		return sim.Result{}, err
	}
	sys.Warmup()
	if err := apply(sys); err != nil {
		return sim.Result{}, err
	}
	return r.measure(sys), nil
}

// setScheduler is the apply step that installs sched.
func setScheduler(sched memctrl.Scheduler) func(sys *sim.System) error {
	return func(sys *sim.System) error { return sys.Controller().SetScheduler(sched) }
}

// runSched measures a mix under an explicitly installed scheduler.
func (r *Runner) runSched(mix workload.Mix, sched memctrl.Scheduler) (sim.Result, error) {
	return r.runConfigured(mix, setScheduler(sched))
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
// queueing and via per-period budget throttling on the given mixes and
// compares the achieved Hsp, one row per mix. The model prescribes
// *allocations*; this ablation shows the hardware mechanism realizing them
// is interchangeable.
func (r *Runner) MechanismStudy(mixes []workload.Mix) (*Table, error) {
	t := newTable("Ablation: start-time-fair vs budget-throttle enforcement of square-root shares",
		"workload", "objective", "STF", "budget", "budget/STF")
	for _, mix := range mixes {
		apcAlone, _, ipcAlone, err := r.aloneVectors(mix)
		if err != nil {
			return nil, err
		}
		shares, err := core.SquareRoot().Shares(apcAlone)
		if err != nil {
			return nil, err
		}
		stf, err := memctrl.NewStartTimeFair(shares)
		if err != nil {
			return nil, err
		}
		stfRes, err := r.runSched(mix, stf)
		if err != nil {
			return nil, err
		}
		bt, err := memctrl.NewBudgetThrottle(shares, 20_000)
		if err != nil {
			return nil, err
		}
		btRes, err := r.runSched(mix, bt)
		if err != nil {
			return nil, err
		}
		stfVal, err := metrics.Hsp(stfRes.IPCs(), ipcAlone)
		if err != nil {
			return nil, err
		}
		btVal, err := metrics.Hsp(btRes.IPCs(), ipcAlone)
		if err != nil {
			return nil, err
		}
		t.add(txt(mix.Name), txt(metrics.ObjectiveHsp.String()), f3(stfVal), f3(btVal), f3(ratio(btVal, stfVal)))
	}
	return t, nil
}

// EnforcementStudy measures, for the two priority schemes, how much of the
// objective value depends on *strict* priority scheduling versus merely
// enforcing the model's allocation via fair-queueing shares. Rows are keyed
// "mix/objective".
func (r *Runner) EnforcementStudy(mixes []workload.Mix) (*Table, error) {
	t := newTable("Ablation: strict-priority vs share-based enforcement of priority allocations",
		"workload", "objective", "strict", "shares", "strict/shares")
	cases := []struct {
		obj    metrics.Objective
		scheme *core.PriorityScheme
	}{
		{metrics.ObjectiveWsp, core.PriorityAPC()},
		{metrics.ObjectiveIPCSum, core.PriorityAPI()},
	}
	for _, mix := range mixes {
		apcAlone, api, ipcAlone, err := r.aloneVectors(mix)
		if err != nil {
			return nil, err
		}
		for _, cse := range cases {
			// Strict priority enforcement.
			order, err := cse.scheme.Order(apcAlone, api)
			if err != nil {
				return nil, err
			}
			pr, err := memctrl.NewPriority(order)
			if err != nil {
				return nil, err
			}
			strictRes, err := r.runSched(mix, pr)
			if err != nil {
				return nil, err
			}
			strictVal, err := cse.obj.Eval(strictRes.IPCs(), ipcAlone)
			if err != nil {
				return nil, err
			}

			// Share-based enforcement of the same allocation.
			alloc, err := cse.scheme.Allocate(apcAlone, api, strictRes.TotalAPC)
			if err != nil {
				return nil, err
			}
			shares := make([]float64, len(alloc))
			for i, x := range alloc {
				shares[i] = x
				if shares[i] < 1e-6 {
					shares[i] = 1e-6
				}
			}
			stf, err := memctrl.NewStartTimeFair(shares)
			if err != nil {
				return nil, err
			}
			shareRes, err := r.runSched(mix, stf)
			if err != nil {
				return nil, err
			}
			shareVal, err := cse.obj.Eval(shareRes.IPCs(), ipcAlone)
			if err != nil {
				return nil, err
			}
			t.addKeyed(mix.Name+"/"+cse.obj.String(), txt(mix.Name), txt(cse.obj.String()),
				f3(strictVal), f3(shareVal), f3(ratio(strictVal, shareVal)))
		}
	}
	return t, nil
}
