package exper

import (
	"fmt"
	"reflect"
	"testing"

	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// TestExperHeuristicKernelsBitIdentical extends the kernel differential to
// the four heuristic schedulers (STFM, ATLAS, TCM, PARBS) that carry the
// BusySpanSafe marker: under them the controller stays busy-but-deterministic
// for long stretches, so this is the path where the cycle-skipping kernel's
// busy-span integration does real work at the experiment level. Each
// heuristic runs as a cell through the exper measurement pipeline (warmup,
// fork, settle, measure) under both kernels and both topologies; Result and off-chip
// access trace must match bit for bit.
func TestExperHeuristicKernelsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	mix, err := workload.MixByName("hetero-4")
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, kernel sim.Kernel, shared bool, h string) (sim.Result, []diffTrace) {
		t.Helper()
		cfg := Quick()
		// Alone profiles only feed the objective values, not the run.
		cfg.ProfileCycles = 20_000
		cfg.SettleCycles = 30_000
		cfg.MeasureCycles = 150_000
		cfg.Sim.Kernel = kernel
		cfg.Sim.SharedL2 = shared
		var trace []diffTrace
		cfg.Tracer = func(cycle int64, app int, addr uint64, write bool) {
			trace = append(trace, diffTrace{cycle, app, addr, write})
		}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := r.RunMix(mix, h)
		if err != nil {
			t.Fatal(err)
		}
		return run.Result, trace
	}
	for _, shared := range []bool{false, true} {
		for _, h := range HeuristicNames() {
			t.Run(fmt.Sprintf("sharedL2=%v/%s", shared, h), func(t *testing.T) {
				nres, ntr := run(t, sim.KernelNaive, shared, h)
				sres, str := run(t, sim.KernelCycleSkipping, shared, h)
				if !reflect.DeepEqual(nres, sres) {
					t.Errorf("%s: results diverge\nnaive: %+v\nskip:  %+v", h, nres, sres)
				}
				if !reflect.DeepEqual(ntr, str) {
					t.Errorf("%s: traces diverge (naive %d records, skip %d)", h, len(ntr), len(str))
				}
				if len(str) == 0 {
					t.Errorf("%s: empty trace — tracer not wired through the cell executor", h)
				}
			})
		}
	}
}
