package exper

import (
	"errors"
	"fmt"

	"bwpart/internal/core"
	"bwpart/internal/cpu"
	"bwpart/internal/memctrl"
	"bwpart/internal/profile"
	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// PhaseStudy compares static (profile-once) partitioning against the paper's
// periodic re-profiling on a workload whose first application alternates
// between a compute phase (povray-like) and a memory-streaming phase
// (lbm-like). Sec. IV-C: "when an application's behavior changes, its
// APC_alone will be updated ... our partitioning schemes will change an
// application's bandwidth share correspondingly". phaseInstr is the phase
// length in instructions for the phased app; the study runs the given number
// of epochs of epochCycles each after a one-epoch FCFS profiling prologue.
// One row per epoch (keyed by its index) holds the online APC_alone estimate
// for the phased app, its IPC under both systems and both systems' IPC sums;
// the note gives the estimate's max/min swing across epochs, the evidence the
// profiler tracks the phases.
func (r *Runner) PhaseStudy(phaseInstr, epochCycles int64, epochs int) (*Table, error) {
	if phaseInstr <= 0 || epochCycles <= 0 || epochs < 2 {
		return nil, errors.New("exper: phase study needs positive windows and >= 2 epochs")
	}
	mkSystem := func() (*sim.System, error) {
		phased, err := workload.TwoPhase("povray", "lbm", phaseInstr, 0, r.cfg.Seed)
		if err != nil {
			return nil, err
		}
		pov, err := workload.ByName("povray")
		if err != nil {
			return nil, err
		}
		specs := []sim.AppSpec{{
			Name:   "phased",
			Core:   coreFor(r.cfg.Sim, pov),
			Stream: phased,
			Warm:   phased.Warmup,
		}}
		for i, name := range []string{"milc", "gromacs", "gobmk"} {
			p, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			gen, err := workload.NewGenerator(p, i+1, r.cfg.Seed)
			if err != nil {
				return nil, err
			}
			specs = append(specs, sim.AppSpec{Name: name, Core: coreFor(r.cfg.Sim, p), Stream: gen, Warm: gen.Warmup})
		}
		sys, err := sim.NewFromSpecs(r.cfg.Sim, specs)
		if err != nil {
			return nil, err
		}
		sys.Warmup()
		return sys, nil
	}

	static, err := mkSystem()
	if err != nil {
		return nil, err
	}
	online, err := mkSystem()
	if err != nil {
		return nil, err
	}

	var statsBuf []memctrl.AppStats // reused across epochs; EstimateAll never retains it

	// Prologue: both systems profile under FCFS for one epoch.
	prologue := func(sys *sim.System) ([]float64, []float64, error) {
		if err := sys.ApplyNoPartitioning(); err != nil {
			return nil, nil, err
		}
		sys.ResetStats()
		sys.Run(epochCycles)
		statsBuf = sys.Controller().StatsInto(statsBuf)
		est, err := profile.EstimateAll(statsBuf, epochCycles)
		if err != nil {
			return nil, nil, err
		}
		apis := sys.Results().APIs()
		sanitize(est, apis)
		return est, apis, nil
	}
	estS, apiS, err := prologue(static)
	if err != nil {
		return nil, err
	}
	if err := static.ApplyScheme(core.Proportional(), estS, apiS); err != nil {
		return nil, err
	}
	estO, apiO, err := prologue(online)
	if err != nil {
		return nil, err
	}
	if err := online.ApplyScheme(core.Proportional(), estO, apiO); err != nil {
		return nil, err
	}

	t := newTable("Phase adaptation: static (profile-once) vs online re-profiling (Proportional shares)",
		"epoch", "est APC_alone (phased)", "phased IPC static", "phased IPC online", "total IPC static", "total IPC online")
	minEst, maxEst := 0.0, 0.0
	for e := 0; e < epochs; e++ {
		static.ResetStats()
		static.Run(epochCycles)
		online.ResetStats()
		online.Run(epochCycles)

		sRes := static.Results()
		oRes := online.Results()
		statsBuf = online.Controller().StatsInto(statsBuf)
		est, err := profile.EstimateAll(statsBuf, epochCycles)
		if err != nil {
			return nil, err
		}
		apis := oRes.APIs()
		sanitize(est, apis)
		// Online system repartitions from fresh estimates; static keeps
		// its stale shares.
		if err := online.ApplyScheme(core.Proportional(), est, apis); err != nil {
			return nil, err
		}
		t.add(txt(fmt.Sprintf("%d", e)), numf("%.5f", est[0]),
			f3(sRes.Apps[0].IPC), f3(oRes.Apps[0].IPC), f3(ipcSum(sRes)), f3(ipcSum(oRes)))
		if e == 0 || est[0] < minEst {
			minEst = est[0]
		}
		if e == 0 || est[0] > maxEst {
			maxEst = est[0]
		}
	}
	swing := 0.0
	if minEst > 0 {
		swing = maxEst / minEst
	}
	t.note("online estimate swing across epochs: %.2fx", swing)
	return t, nil
}

// coreFor derives the per-app core config from a profile.
func coreFor(simCfg sim.Config, p workload.Profile) cpu.Config {
	c := simCfg.Core
	c.BaseIPC = p.BaseIPC
	c.MaxOutstandingLoads = p.MLP
	return c
}

// sanitize clamps estimator outputs to usable positive values.
func sanitize(est, apis []float64) {
	for i := range est {
		if est[i] <= 0 {
			est[i] = 1e-6
		}
		if apis[i] <= 0 {
			apis[i] = 1e-3
		}
	}
}
