package exper

import (
	"errors"
	"fmt"

	"bwpart/internal/core"
	"bwpart/internal/cpu"
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
	static, err := sim.NewFromSpecs(r.cfg.Sim, specs)
	if err != nil {
		return nil, err
	}
	static.Warmup()
	// The online system is a fork of the static one at the warm point.
	online, err := static.Fork()
	if err != nil {
		return nil, err
	}

	// Raw estimates (alpha 1) and a 1e-3 API fallback: a loop re-derives
	// shares from the latest epoch alone.
	fallback := make([]float64, len(specs))
	for i := range fallback {
		fallback[i] = 1e-3
	}
	// Prologue: each system profiles one epoch under FCFS, the policy it was
	// built with, through its own loop and repartitions from it. The two
	// systems are identical, so both loops see the same counters and both
	// systems start from the same shares; the static one keeps them, the
	// online one's loop (the last built) carries on.
	var loop *epochLoop
	for _, sys := range []*sim.System{static, online} {
		if loop, err = newEpochLoop(core.Proportional(), epochCycles, 1, fallback); err != nil {
			return nil, err
		}
		if _, err := loop.step(sys); err != nil {
			return nil, err
		}
	}

	t := newTable("Phase adaptation: static (profile-once) vs online re-profiling (Proportional shares)",
		"epoch", "est APC_alone (phased)", "phased IPC static", "phased IPC online", "total IPC static", "total IPC online")
	minEst, maxEst := 0.0, 0.0
	for e := 0; e < epochs; e++ {
		static.ResetStats()
		static.Run(epochCycles)
		sRes := static.Results()
		// The online system repartitions from fresh estimates; the static
		// one keeps its stale shares.
		est, err := loop.step(online)
		if err != nil {
			return nil, err
		}
		oRes := online.Results()
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
