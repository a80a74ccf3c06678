package exper

import "bwpart/internal/workload"

// Study is one named experiment of the figure suite: Run resolves it on a
// runner and returns its tables in report order.
type Study struct {
	Name string
	Run  func(*Runner) ([]*Table, error)
}

// Studies lists the figure suite in report order, each entry carrying the
// parameters the paper (or the extension) fixes for it.
func Studies() []Study {
	return []Study{
		{"table4", func(*Runner) ([]*Table, error) { return one(Table4()) }},
		{"table3", func(r *Runner) ([]*Table, error) {
			t3, err := r.Table3()
			if err != nil {
				return nil, err
			}
			return []*Table{t3.Table()}, nil
		}},
		{"fig1", func(r *Runner) ([]*Table, error) { return one(r.Figure1()) }},
		{"fig2", (*Runner).Figure2},
		{"fig3", func(r *Runner) ([]*Table, error) { return one(r.Figure3()) }},
		{"fig4", func(r *Runner) ([]*Table, error) {
			// The paper's three scale points: 4, 8, 16 cores at 3.2, 6.4,
			// 12.8 GB/s.
			t, err := r.Figure4Scaled(workload.HeteroMixes(), []int{1, 2, 4})
			if err != nil {
				return nil, err
			}
			names := []string{"lbm", "leslie3d"}
			apcs, err := r.AloneAPCScaling(names, []int{1, 2})
			if err != nil {
				return nil, err
			}
			for _, name := range names {
				t.note("APKC_alone scaling %s: %.2f -> %.2f (paper: lbm +83.7%%, leslie3d +24.5%%)",
					name, apcs[name][0], apcs[name][1])
			}
			return []*Table{t}, nil
		}},
		{"validate", func(r *Runner) ([]*Table, error) {
			v, err := r.ValidateModel(workload.HeteroMixes()[:2])
			if err != nil {
				return nil, err
			}
			return []*Table{v.Table()}, nil
		}},
		{"online", onMix("hetero-5", func(r *Runner, mix workload.Mix) (*Table, error) {
			run, err := r.resolveOne(GridCell{Mix: mix, Scheme: onlinePrefix + "square-root", Epoch: 200_000, Epochs: 4})
			if err != nil {
				return nil, err
			}
			return onlineTable(run), nil
		})},
		{"pagepolicy", func(r *Runner) ([]*Table, error) { return one(r.PagePolicyStudy(workload.HeteroMixes()[:3])) }},
		{"enforcement", func(r *Runner) ([]*Table, error) { return one(r.EnforcementStudy(workload.HeteroMixes()[:3])) }},
		{"heuristics", func(r *Runner) ([]*Table, error) { return one(r.RunHeuristics(workload.HeteroMixes())) }},
		{"sharedl2", onMix("homo-1", func(r *Runner, mix workload.Mix) (*Table, error) {
			return r.SharedL2Study(mix, [][]int{{2, 2, 2, 2}, {1, 1, 1, 5}, {5, 1, 1, 1}})
		})},
		{"energy", onMix("hetero-5", (*Runner).EnergyStudy)},
		{"mechanism", func(r *Runner) ([]*Table, error) { return one(r.MechanismStudy(workload.HeteroMixes()[:3])) }},
		{"interval", onMix("hetero-5", func(r *Runner, mix workload.Mix) (*Table, error) {
			return r.IntervalStudy(mix, "square-root", []int64{60_000, 150_000, 300_000})
		})},
		{"repeat", onMix("hetero-5", func(r *Runner, mix workload.Mix) (*Table, error) {
			return r.Repeatability(mix, "square-root", 5)
		})},
		{"phase", func(r *Runner) ([]*Table, error) {
			// 100k-instruction phases, shares re-derived every 200k cycles
			// over 6 epochs.
			return one(r.PhaseStudy(100_000, 200_000, 6))
		}},
	}
}

// one wraps a single-table study result.
func one(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// onMix resolves the named mix and runs a one-mix study on it.
func onMix(name string, study func(*Runner, workload.Mix) (*Table, error)) func(*Runner) ([]*Table, error) {
	return func(r *Runner) ([]*Table, error) {
		mix, err := workload.MixByName(name)
		if err != nil {
			return nil, err
		}
		return one(study(r, mix))
	}
}
