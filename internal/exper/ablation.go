package exper

import (
	"fmt"
	"strings"

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

// PagePolicyRow compares one workload under the two row policies.
type PagePolicyRow struct {
	Mix            string
	Scheme         string
	ClosePageIPC   float64 // IPC sum under close-page + chosen scheduler
	OpenPageIPC    float64 // IPC sum under open-page + FR-FCFS baseline
	CloseBusUtil   float64
	OpenBusUtil    float64
	OpenRowHitRate float64
}

// PagePolicyResult is the page-policy ablation outcome.
type PagePolicyResult struct {
	Rows []PagePolicyRow
}

// PagePolicyStudy compares the close-page FCFS baseline against open-page
// FR-FCFS on the given mixes. FR-FCFS is the bandwidth-utilization
// optimization the paper's related work discusses (Rixner et al.): it
// should recover row hits on streaming workloads.
func (r *Runner) PagePolicyStudy(mixes []workload.Mix) (*PagePolicyResult, error) {
	out := &PagePolicyResult{}
	for _, mix := range mixes {
		profs, err := mix.Profiles()
		if err != nil {
			return nil, err
		}
		row := PagePolicyRow{Mix: mix.Name, Scheme: "fcfs-vs-frfcfs"}

		// Close page + FCFS (the paper's baseline): the runner's own
		// configuration, so it can fork the mix's shared warm base.
		closeRes, err := r.runSched(mix, memctrl.NewFCFS())
		if err != nil {
			return nil, err
		}
		row.ClosePageIPC = ipcSum(closeRes)
		row.CloseBusUtil = closeRes.BusUtilization

		// Open page + FR-FCFS.
		openCfg := r.cfg.Sim
		openCfg.DRAM.Policy = dram.OpenPage
		openRes, err := r.runRaw(openCfg, profs, setScheduler(memctrl.NewFRFCFS(8)))
		if err != nil {
			return nil, err
		}
		row.OpenPageIPC = ipcSum(openRes)
		row.OpenBusUtil = openRes.BusUtilization
		out.Rows = append(out.Rows, row)
	}
	return out, nil
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

// Render prints the page-policy comparison.
func (p *PagePolicyResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: close-page FCFS vs open-page FR-FCFS\n")
	t := newTable("workload", "IPCsum close", "IPCsum open", "busUtil close", "busUtil open")
	for _, row := range p.Rows {
		t.addRow(row.Mix, f3(row.ClosePageIPC), f3(row.OpenPageIPC),
			f2(row.CloseBusUtil), f2(row.OpenBusUtil))
	}
	b.WriteString(t.String())
	return b.String()
}

// EnforcementRow compares strict-priority enforcement against share-based
// enforcement of the same model allocation.
type EnforcementRow struct {
	Mix       string
	Objective metrics.Objective
	// Strict uses the priority scheduler; Shares enforces the model's
	// water-filled allocation as start-time-fair shares.
	Strict float64
	Shares float64
}

// MechanismRow compares the two share-enforcement mechanisms (start-time
// fair queueing vs MemGuard-style budget throttling) realizing the same
// scheme on the same mix.
type MechanismRow struct {
	Mix       string
	Scheme    string
	Objective metrics.Objective
	STF       float64
	Budget    float64
}

// MechanismResult is the share-enforcement mechanism ablation outcome.
type MechanismResult struct {
	Rows []MechanismRow
}

// MechanismStudy enforces the Square_root scheme via start-time-fair
// queueing and via per-period budget throttling on the given mixes and
// compares the achieved Hsp. The model prescribes *allocations*; this
// ablation shows the hardware mechanism realizing them is interchangeable.
func (r *Runner) MechanismStudy(mixes []workload.Mix) (*MechanismResult, error) {
	out := &MechanismResult{}
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
		out.Rows = append(out.Rows, MechanismRow{
			Mix: mix.Name, Scheme: "square-root", Objective: metrics.ObjectiveHsp,
			STF: stfVal, Budget: btVal,
		})
	}
	return out, nil
}

// Render prints the mechanism comparison.
func (m *MechanismResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: start-time-fair vs budget-throttle enforcement of square-root shares\n")
	t := newTable("workload", "objective", "STF", "budget", "budget/STF")
	for _, row := range m.Rows {
		ratio := 0.0
		if row.STF != 0 {
			ratio = row.Budget / row.STF
		}
		t.addRow(row.Mix, row.Objective.String(), f3(row.STF), f3(row.Budget), fmt.Sprintf("%.3f", ratio))
	}
	b.WriteString(t.String())
	return b.String()
}

// EnforcementResult is the enforcement ablation outcome.
type EnforcementResult struct {
	Rows []EnforcementRow
}

// EnforcementStudy measures, for the two priority schemes, how much of the
// objective value depends on *strict* priority scheduling versus merely
// enforcing the model's allocation via fair-queueing shares.
func (r *Runner) EnforcementStudy(mixes []workload.Mix) (*EnforcementResult, error) {
	out := &EnforcementResult{}
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
			out.Rows = append(out.Rows, EnforcementRow{
				Mix:       mix.Name,
				Objective: cse.obj,
				Strict:    strictVal,
				Shares:    shareVal,
			})
		}
	}
	return out, nil
}

// Render prints the enforcement comparison.
func (e *EnforcementResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: strict-priority vs share-based enforcement of priority allocations\n")
	t := newTable("workload", "objective", "strict", "shares", "strict/shares")
	for _, row := range e.Rows {
		ratio := 0.0
		if row.Shares != 0 {
			ratio = row.Strict / row.Shares
		}
		t.addRow(row.Mix, row.Objective.String(), f3(row.Strict), f3(row.Shares), fmt.Sprintf("%.3f", ratio))
	}
	b.WriteString(t.String())
	return b.String()
}
