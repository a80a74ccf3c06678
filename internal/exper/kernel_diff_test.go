package exper

import (
	"fmt"
	"reflect"
	"testing"

	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// diffTrace is one off-chip access observation for kernel comparison.
type diffTrace struct {
	cycle int64
	app   int
	addr  uint64
	write bool
}

// kernelDiffRun executes one mix under every scheme of the acceptance list
// with the given kernel and topology, returning per-scheme runs and traces.
// Each (kernel, topology) pair gets its own Runner so the alone-profile
// cache is also produced by the kernel under test.
func kernelDiffRun(t *testing.T, kernel sim.Kernel, shared bool, mix workload.Mix,
	schemes []string) (map[string]*MixRun, map[string][]diffTrace) {
	t.Helper()
	cfg := Quick()
	// Shrink the windows: this test runs 5 schemes x 2 topologies x 2
	// kernels, and bit-identity either holds everywhere or breaks quickly.
	cfg.ProfileCycles = 150_000
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
	runs := make(map[string]*MixRun, len(schemes))
	traces := make(map[string][]diffTrace, len(schemes))
	for _, scheme := range schemes {
		trace = nil
		run, err := r.RunMix(mix, scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		runs[scheme] = run
		traces[scheme] = trace
	}
	return runs, traces
}

// TestExperKernelsBitIdentical is the end-to-end differential check of the
// cycle-skipping kernel at the experiment level: for every partitioning
// scheme named in the acceptance criteria, under both L2 topologies, a full
// RunMix (alone profiling, warmup, settle, measurement) must produce a
// bit-identical Result, objective values, and off-chip access trace under
// both kernels.
func TestExperKernelsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	schemes := []string{NoPartitioning, "square-root", "proportional", "priority-apc", "priority-api"}
	mix, err := workload.MixByName("hetero-5")
	if err != nil {
		t.Fatal(err)
	}
	for _, shared := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharedL2=%v", shared), func(t *testing.T) {
			naive, ntr := kernelDiffRun(t, sim.KernelNaive, shared, mix, schemes)
			skip, str := kernelDiffRun(t, sim.KernelCycleSkipping, shared, mix, schemes)
			for _, scheme := range schemes {
				n, s := naive[scheme], skip[scheme]
				if !reflect.DeepEqual(n.Result, s.Result) {
					t.Errorf("%s: results diverge\nnaive: %+v\nskip:  %+v", scheme, n.Result, s.Result)
				}
				if !reflect.DeepEqual(n.Values, s.Values) {
					t.Errorf("%s: objective values diverge\nnaive: %v\nskip:  %v", scheme, n.Values, s.Values)
				}
				if !reflect.DeepEqual(n.APCAlone, s.APCAlone) {
					t.Errorf("%s: alone profiles diverge\nnaive: %v\nskip:  %v", scheme, n.APCAlone, s.APCAlone)
				}
				if !reflect.DeepEqual(ntr[scheme], str[scheme]) {
					t.Errorf("%s: traces diverge (naive %d records, skip %d)",
						scheme, len(ntr[scheme]), len(str[scheme]))
				}
				if len(str[scheme]) == 0 {
					t.Errorf("%s: empty trace — tracer not wired through the measurement window", scheme)
				}
			}
		})
	}
}
