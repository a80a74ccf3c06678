package sim

import (
	"fmt"
	"reflect"
	"testing"

	"bwpart/internal/core"
	"bwpart/internal/memctrl"
	"bwpart/internal/workload"
)

// This file runs the experiment engine's two simulation paths — the
// standalone profiling of every benchmark and the cell pipeline — under the
// reference loop and the wake scheduler, at the engine's Quick configuration
// (the baseline system with a 100k-instruction warmup, seed 1) and on Table
// IV mixes, and demands bit-identical results and issue traces.

// cellConfig is the simulator configuration of the engine's Quick runs on
// the given L2 topology.
func cellConfig(shared bool) Config {
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 100_000
	cfg.SharedL2 = shared
	return cfg
}

// mixProfiles returns the profiles of the named Table IV mix.
func mixProfiles(t *testing.T, name string) []workload.Profile {
	t.Helper()
	mix, err := workload.MixByName(name)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mix.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	return profs
}

// diffAlone checks ProfileAlone against the same steps under the reference
// loop for every benchmark of profs, and returns the profiles' APC_alone and
// API vectors, which the model-derived schemes take.
func diffAlone(t *testing.T, cfg Config, profs []workload.Profile, cycles int64) (apc, api []float64) {
	t.Helper()
	for _, p := range profs {
		sys, err := New(cfg, []workload.Profile{p})
		if err != nil {
			t.Fatal(err)
		}
		sys.Warmup()
		sys.runNaive(min(cycles/5, 50_000))
		sys.ResetStats()
		sys.runNaive(cycles)
		a := sys.Results().Apps[0]
		want := AloneProfile{Name: p.Name, IPCAlone: a.IPC, APCAlone: a.APC, API: a.API, APKC: a.APKC, APKI: a.APKI}
		got, err := ProfileAlone(cfg, p, cycles)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: alone profiles diverge\nnaive: %+v\nwake:  %+v", p.Name, want, got)
		}
		apc, api = append(apc, got.APCAlone), append(api, got.API)
	}
	return apc, api
}

// runCell is one cell of the engine's pipeline under run: build and warm the
// mix, snapshot it, build a system from the checkpoint, install the policy,
// trace the controller's issues, settle, reset the statistics and measure.
func runCell(t *testing.T, run loop, cfg Config, profs []workload.Profile,
	install func(*System) error, settle, measure int64) (Result, []traceRec) {
	t.Helper()
	warm, err := New(cfg, profs)
	if err != nil {
		t.Fatal(err)
	}
	warm.Warmup()
	cp, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := FromCheckpoint(cfg, profs, cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := install(sys); err != nil {
		t.Fatal(err)
	}
	var trace []traceRec
	sys.Controller().SetTracer(func(cycle int64, app int, addr uint64, write bool) {
		trace = append(trace, traceRec{cycle, app, addr, write})
	})
	run(sys, settle)
	sys.ResetStats()
	run(sys, measure)
	return sys.Results(), trace
}

// diffCell runs one cell under both loops and compares them.
func diffCell(t *testing.T, cfg Config, profs []workload.Profile, install func(*System) error) {
	t.Helper()
	const settle, measure = 30_000, 150_000
	nres, ntr := runCell(t, naiveLoop, cfg, profs, install, settle, measure)
	wres, wtr := runCell(t, wakeLoop, cfg, profs, install, settle, measure)
	if !reflect.DeepEqual(nres, wres) {
		t.Errorf("results diverge\nnaive: %+v\nwake:  %+v", nres, wres)
	}
	if !reflect.DeepEqual(ntr, wtr) {
		t.Errorf("issue traces diverge (naive %d records, wake %d)", len(ntr), len(wtr))
	}
	if len(wtr) == 0 {
		t.Error("empty issue trace: the tracer saw no measurement window")
	}
}

// TestCellKernelsBitIdentical runs the cell pipeline on hetero-5 under
// FCFS (No_partitioning) and the model-derived schemes of the acceptance
// list, whose shares and orders come from the alone profiles, on both L2
// topologies.
func TestCellKernelsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	profs := mixProfiles(t, "hetero-5")
	for _, shared := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharedL2=%v", shared), func(t *testing.T) {
			cfg := cellConfig(shared)
			apc, api := diffAlone(t, cfg, profs, 150_000)
			t.Run("no-partitioning", func(t *testing.T) {
				diffCell(t, cfg, profs, (*System).ApplyNoPartitioning)
			})
			for _, name := range []string{"square-root", "proportional", "priority-apc", "priority-api"} {
				sch, err := core.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(name, func(t *testing.T) {
					diffCell(t, cfg, profs, func(sys *System) error { return sys.ApplyScheme(sch, apc, api) })
				})
			}
		})
	}
}

// TestCellHeuristicKernelsBitIdentical runs the cell pipeline on hetero-4
// under the four heuristic schedulers, with the engine's parameters, on both
// L2 topologies: under them the controller is busy but deterministic for
// long stretches, so this is where busy-span sleeping does real work.
func TestCellHeuristicKernelsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	profs := mixProfiles(t, "hetero-4")
	n := len(profs)
	heuristics := []struct {
		name string
		mk   func() (memctrl.Scheduler, error)
	}{
		{"stfm", func() (memctrl.Scheduler, error) { return memctrl.NewSTFM(n, 1.10) }},
		{"parbs", func() (memctrl.Scheduler, error) { return memctrl.NewPARBS(n, 5) }},
		{"atlas", func() (memctrl.Scheduler, error) { return memctrl.NewATLAS(n, 100_000, 0.875) }},
		{"tcm", func() (memctrl.Scheduler, error) { return memctrl.NewTCM(n, 100_000, 8_000, 0.25, 1) }},
	}
	for _, shared := range []bool{false, true} {
		cfg := cellConfig(shared)
		t.Run(fmt.Sprintf("sharedL2=%v/alone", shared), func(t *testing.T) {
			diffAlone(t, cfg, profs, 20_000)
		})
		for _, h := range heuristics {
			t.Run(fmt.Sprintf("sharedL2=%v/%s", shared, h.name), func(t *testing.T) {
				diffCell(t, cfg, profs, func(sys *System) error {
					s, err := h.mk()
					if err != nil {
						return err
					}
					return sys.Controller().SetScheduler(s)
				})
			})
		}
	}
}
