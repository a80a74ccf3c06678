package sim

import (
	"reflect"
	"testing"

	"bwpart/internal/cache"
	"bwpart/internal/cpu"
	"bwpart/internal/dram"
	"bwpart/internal/memctrl"
)

// This file is the machinery shared by every naive ≡ wake-scheduler
// differential in the package (kernel_test.go, busyspan_diff_test.go,
// fuzz_test.go, cell_diff_test.go): the reference loop, one description of
// a system under test, one observation record, and diffKernels, which runs
// the oracle once and the wake scheduler twice — straight, and in uneven Run
// slices — and demands bit-identical observations from both.

// runNaive is the reference loop the wake scheduler (Run) is held to: it
// ticks every component once per simulated cycle, in slot order, and counts
// every one of those cycles as ticked. It drives a system built by New or
// NewFromSpecs as it is: Run leaves every Waker awake, and this loop never
// puts one to sleep, so every Wake is a no-op.
func (s *System) runNaive(cycles int64) {
	end := s.now + cycles
	for ; s.now < end; s.now++ {
		for i := range s.slots {
			s.slots[i].c.Tick(s.now)
		}
	}
	ran := max(cycles, 0)
	s.ticked += ran
	for i := range s.slots {
		s.slots[i].Ticks += ran
	}
}

// loop is how a test advances a system: naiveLoop, the reference, or
// wakeLoop, the wake scheduler under test.
type loop func(s *System, cycles int64)

var (
	naiveLoop loop = (*System).runNaive
	wakeLoop  loop = (*System).Run
)

// kernelCase is one system configuration of the differential. The zero
// value of every optional field is the package default.
type kernelCase struct {
	names    []string
	specs    func(t *testing.T) []AppSpec // overrides names (custom streams)
	shared   bool
	policy   dram.PagePolicy
	queueCap int
	seed     int64
	prefetch int // L2PrefetchDepth
	l1MSHRs  int // overrides Config.L1.MSHRs when positive
	l2MSHRs  int // overrides Config.L2.MSHRs when positive
	sched    func(t *testing.T) memctrl.Scheduler
	// settle and measure are the two timed phases (ResetStats in between).
	settle, measure int64
	// slices is the uneven Run pattern of the sliced drives: each entry
	// once, then the phase's remainder in one Run.
	slices []int64
}

// defaultSlices is the pattern the ISSUE names: a one-cycle Run (every
// component flushed and re-ticked at once), a short one, one longer than
// any sleep, then the remainder.
var defaultSlices = []int64{1, 7, 1024}

// kernelObs is everything the differential compares: the windowed Result,
// the controller's issue and completion streams, and every component's
// counters (which Result only samples).
type kernelObs struct {
	Res         Result
	Issues      []traceRec
	Completions []traceRec
	Cores       []cpu.Stats
	L1s, L2s    []cache.Stats
	Ctrl        []memctrl.AppStats
}

// buildCase assembles kc's system, installs a fresh scheduler, and runs
// functional warmup.
func buildCase(t *testing.T, kc kernelCase) *System {
	t.Helper()
	cfg := fastCfg()
	cfg.SharedL2 = kc.shared
	cfg.DRAM.Policy = kc.policy
	cfg.QueueCap = kc.queueCap
	cfg.L2PrefetchDepth = kc.prefetch
	if kc.seed != 0 {
		cfg.Seed = kc.seed
	}
	if kc.l1MSHRs > 0 {
		cfg.L1.MSHRs = kc.l1MSHRs
	}
	if kc.l2MSHRs > 0 {
		cfg.L2.MSHRs = kc.l2MSHRs
	}
	var sys *System
	var err error
	if kc.specs != nil {
		sys, err = NewFromSpecs(cfg, kc.specs(t))
	} else {
		sys, err = New(cfg, mustProfiles(t, kc.names...))
	}
	if err != nil {
		t.Fatal(err)
	}
	if kc.sched != nil {
		if err := sys.Controller().SetScheduler(kc.sched(t)); err != nil {
			t.Fatal(err)
		}
	}
	sys.Warmup()
	return sys
}

// runSliced advances sys by cycles under run: each slice once, then the
// remainder.
func runSliced(run loop, sys *System, cycles int64, slices []int64) {
	for _, n := range slices {
		if n <= 0 || n >= cycles {
			break
		}
		run(sys, n)
		cycles -= n
	}
	run(sys, cycles)
}

// observe drives kc under run and records the observations. With sliced
// set both phases run in kc.slices, so a component left asleep (or not
// integrated) by the end-of-Run flush shows up as a divergence.
func observe(t *testing.T, run loop, kc kernelCase, sliced bool) (kernelObs, KernelStats) {
	t.Helper()
	sys := buildCase(t, kc)
	var obs kernelObs
	sys.Controller().SetTracer(func(cycle int64, app int, addr uint64, write bool) {
		obs.Issues = append(obs.Issues, traceRec{cycle, app, addr, write})
	})
	sys.Controller().SetCompletionTracer(func(cycle int64, app int, addr uint64, write bool) {
		obs.Completions = append(obs.Completions, traceRec{cycle, app, addr, write})
	})
	var slices []int64
	if sliced {
		slices = kc.slices
	}
	runSliced(run, sys, kc.settle, slices)
	sys.ResetStats()
	runSliced(run, sys, kc.measure, slices)
	obs.Res = sys.Results()
	for i := range sys.cores {
		obs.Cores = append(obs.Cores, sys.cores[i].Stats())
		obs.L1s = append(obs.L1s, sys.l1s[i].Stats())
		obs.Ctrl = append(obs.Ctrl, sys.ctrl.StatsFor(i))
		if sys.sharedL2 != nil {
			obs.L2s = append(obs.L2s, sys.sharedL2.StatsFor(i))
		} else {
			obs.L2s = append(obs.L2s, sys.l2s[i].Stats())
		}
	}
	return obs, sys.KernelStats()
}

// diffObs reports every field of got that differs from the oracle's.
func diffObs(t *testing.T, drive string, want, got kernelObs) {
	t.Helper()
	if !reflect.DeepEqual(want.Res, got.Res) {
		t.Errorf("%s: results diverge\nnaive: %+v\nwake:  %+v", drive, want.Res, got.Res)
	}
	if !reflect.DeepEqual(want.Issues, got.Issues) {
		t.Errorf("%s: issue traces diverge (naive %d records, wake %d)", drive, len(want.Issues), len(got.Issues))
	}
	if !reflect.DeepEqual(want.Completions, got.Completions) {
		t.Errorf("%s: completion traces diverge (naive %d records, wake %d)", drive, len(want.Completions), len(got.Completions))
	}
	if !reflect.DeepEqual(want.Cores, got.Cores) {
		t.Errorf("%s: core stats diverge\nnaive: %+v\nwake:  %+v", drive, want.Cores, got.Cores)
	}
	if !reflect.DeepEqual(want.L1s, got.L1s) {
		t.Errorf("%s: L1 stats diverge\nnaive: %+v\nwake:  %+v", drive, want.L1s, got.L1s)
	}
	if !reflect.DeepEqual(want.L2s, got.L2s) {
		t.Errorf("%s: L2 stats diverge\nnaive: %+v\nwake:  %+v", drive, want.L2s, got.L2s)
	}
	if !reflect.DeepEqual(want.Ctrl, got.Ctrl) {
		t.Errorf("%s: controller stats diverge\nnaive: %+v\nwake:  %+v", drive, want.Ctrl, got.Ctrl)
	}
}

// checkKernelStats asserts the kernel's own accounting: every component's
// cycles are either ticked or slept, and the run's are ticked or leapt.
func checkKernelStats(t *testing.T, ks KernelStats, window int64) {
	t.Helper()
	if ks.Cycles != window || ks.Ticked+ks.Leapt != window {
		t.Errorf("kernel stats: cycles %d = ticked %d + leapt %d, want window %d", ks.Cycles, ks.Ticked, ks.Leapt, window)
	}
	for _, c := range ks.Components {
		if c.Ticks+c.Slept != window {
			t.Errorf("kernel stats: %s ticks %d + slept %d != window %d", c.Name, c.Ticks, c.Slept, window)
		}
	}
}

// diffKernels is the differential: the naive oracle once, the wake
// scheduler straight, and sliced. It returns
// the oracle's observations and the straight wake drive's kernel counters
// for case-specific assertions.
func diffKernels(t *testing.T, kc kernelCase) (kernelObs, KernelStats) {
	t.Helper()
	if kc.settle == 0 {
		kc.settle, kc.measure = 15_000, 50_000
	}
	if kc.slices == nil {
		kc.slices = defaultSlices
	}
	want, nks := observe(t, naiveLoop, kc, false)
	checkKernelStats(t, nks, kc.settle+kc.measure)
	straight, ks := observe(t, wakeLoop, kc, false)
	diffObs(t, "straight", want, straight)
	checkKernelStats(t, ks, kc.settle+kc.measure)
	sliced, sks := observe(t, wakeLoop, kc, true)
	diffObs(t, "sliced", want, sliced)
	checkKernelStats(t, sks, kc.settle+kc.measure)
	if len(want.Issues) == 0 {
		t.Errorf("empty issue trace — workload never reached the controller")
	}
	return want, ks
}
