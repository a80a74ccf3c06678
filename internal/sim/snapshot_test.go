package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bwpart/internal/core"
	"bwpart/internal/dram"
	"bwpart/internal/mem"
	"bwpart/internal/memctrl"
	"bwpart/internal/workload"
)

// snapshotSched builds one scheduler configuration under test. The set
// spans the checkpoint-relevant shapes: stateless (FCFS), idle-safe
// with writeback class state (WriteDrain+FR-FCFS), float tag
// state (StartTimeFair), time-anchored fallback state (STFM), an RNG stream
// (TCM), and per-app batch marks (PARBS).
type snapshotSched struct {
	name   string
	shared bool // also exercise the shared-L2 topology
	make   func(n int) (memctrl.Scheduler, error)
}

func snapshotScheds() []snapshotSched {
	shares := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	return []snapshotSched{
		{"FCFS", true, func(n int) (memctrl.Scheduler, error) { return memctrl.NewFCFS(), nil }},
		{"FRFCFS+write-drain", true, func(n int) (memctrl.Scheduler, error) {
			return memctrl.NewWriteDrain(memctrl.NewFRFCFS(4), 8, 2)
		}},
		{"StartTimeFair", false, func(n int) (memctrl.Scheduler, error) {
			return memctrl.NewStartTimeFair(shares(n))
		}},
		{"BudgetThrottle", false, func(n int) (memctrl.Scheduler, error) {
			return memctrl.NewBudgetThrottle(shares(n), 2_000)
		}},
		{"STFM", false, func(n int) (memctrl.Scheduler, error) { return memctrl.NewSTFM(n, 1.10) }},
		{"ATLAS", false, func(n int) (memctrl.Scheduler, error) { return memctrl.NewATLAS(n, 50_000, 0.875) }},
		{"TCM", false, func(n int) (memctrl.Scheduler, error) { return memctrl.NewTCM(n, 50_000, 5_000, 0.25, 7) }},
		{"PARBS", false, func(n int) (memctrl.Scheduler, error) { return memctrl.NewPARBS(n, 5) }},
	}
}

// measureTraced runs settle+measure on sys with a tracer attached and
// returns the windowed result plus the issue trace.
func measureTraced(sys *System, settle, measure int64) (Result, []traceRec) {
	var trace []traceRec
	sys.Controller().SetTracer(func(cycle int64, app int, addr uint64, write bool) {
		trace = append(trace, traceRec{cycle, app, addr, write})
	})
	sys.Run(settle)
	sys.ResetStats()
	sys.Run(measure)
	return sys.Results(), trace
}

// buildWarm builds a system of the four-app test mix and runs its
// functional warmup: the warm point a checkpoint is taken at.
func buildWarm(t *testing.T, shared bool) *System {
	t.Helper()
	cfg := fastCfg()
	cfg.SharedL2 = shared
	sys, err := New(cfg, mustProfiles(t, "lbm", "milc", "soplex", "povray"))
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup()
	return sys
}

// runSched installs sched on sys and runs warm cycles of timed execution,
// then settle + measure with a tracer attached (measureTraced).
func runSched(t *testing.T, sys *System, sched snapshotSched, warm, settle, measure int64) (Result, []traceRec) {
	t.Helper()
	s, err := sched.make(sys.NumApps())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Controller().SetScheduler(s); err != nil {
		t.Fatal(err)
	}
	sys.Run(warm)
	return measureTraced(sys, settle, measure)
}

// TestForkMatchesColdRun is the differential check of the checkpoint: a
// system forked at the warm point must then produce the exact issue trace
// and Result of an identically configured system that warmed up itself, for
// every scheduler state shape and both topologies. (The subtest names end
// in ref=false: the reference-pick axis is gone, the suite's pinned test
// list keys on the full names.)
func TestForkMatchesColdRun(t *testing.T) {
	const warm, settle, measure = 25_000, 10_000, 60_000
	for _, sched := range snapshotScheds() {
		topos := []bool{false}
		if sched.shared {
			topos = append(topos, true)
		}
		for _, shared := range topos {
			name := fmt.Sprintf("%s/shared=%v/ref=false", sched.name, shared)
			t.Run(name, func(t *testing.T) {
				fork, err := buildWarm(t, shared).Fork()
				if err != nil {
					t.Fatal(err)
				}
				forkRes, forkTrace := runSched(t, fork, sched, warm, settle, measure)
				coldRes, coldTrace := runSched(t, buildWarm(t, shared), sched, warm, settle, measure)
				if !reflect.DeepEqual(coldRes, forkRes) {
					t.Errorf("results diverge\ncold: %+v\nfork: %+v", coldRes, forkRes)
				}
				if !reflect.DeepEqual(coldTrace, forkTrace) {
					t.Errorf("traces diverge (cold %d records, fork %d)", len(coldTrace), len(forkTrace))
				}
			})
		}
	}
}

// TestForkIndependence pins that parent and fork share no mutable state:
// after forking, both must continue with identical traces, and running one
// must not perturb the other. The one value a checkpoint shares with its
// origin, the measurement window's mark, must stay put when the origin
// resets after the snapshot: a system built from a checkpoint taken after a
// reset at the warm point measures its window from that reset, not from the
// origin's later one.
func TestForkIndependence(t *testing.T) {
	sched := snapshotScheds()[1] // WriteDrain+FR-FCFS: pooled writebacks, deep picks
	base := buildWarm(t, false)
	fork, err := base.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// Run the fork to completion first; if it aliased parent state, the
	// parent's subsequent run would diverge.
	forkRes, forkTrace := runSched(t, fork, sched, 25_000, 10_000, 50_000)
	baseRes, baseTrace := runSched(t, base, sched, 25_000, 10_000, 50_000)
	if !reflect.DeepEqual(baseRes, forkRes) {
		t.Errorf("results diverge\nbase: %+v\nfork: %+v", baseRes, forkRes)
	}
	if !reflect.DeepEqual(baseTrace, forkTrace) {
		t.Errorf("traces diverge (base %d records, fork %d)", len(baseTrace), len(forkTrace))
	}

	unsliced := buildWarm(t, false)
	unsliced.ResetStats()
	unsliced.Run(30_000)
	want := unsliced.Results()
	origin := buildWarm(t, false)
	origin.ResetStats()
	cp, err := origin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	origin.Run(5_000)
	origin.ResetStats()
	sliced, err := FromCheckpoint(origin.cfg, mustProfiles(t, "lbm", "milc", "soplex", "povray"), cp)
	if err != nil {
		t.Fatal(err)
	}
	sliced.Run(30_000)
	if got := sliced.Results(); !reflect.DeepEqual(want, got) {
		t.Errorf("a reset on the origin moved the checkpoint's window\nunsliced: %+v\nsliced:   %+v", want, got)
	}
}

// TestSnapshotSharedTopologyRoundTrip covers building a shared-L2 system
// from a checkpoint: a warmed shared-L2 system with uneven way quotas builds a
// system whose shared L2 holds the same lines, counters and quotas and which
// runs on exactly as the original.
func TestSnapshotSharedTopologyRoundTrip(t *testing.T) {
	sched := snapshotScheds()[1]
	cfg := fastCfg()
	cfg.SharedL2 = true
	cfg.L2WayQuota = []int{3, 1, 2, 2}
	sys, err := New(cfg, mustProfiles(t, "lbm", "milc", "soplex", "povray"))
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup()
	cp, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := FromCheckpoint(cfg, mustProfiles(t, "lbm", "milc", "soplex", "povray"), cp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.sharedL2.Snapshot(), sys.sharedL2.Snapshot()) {
		t.Fatal("the built shared L2's lines, counters or quotas differ from the checkpoint's")
	}
	firstRes, firstTrace := runSched(t, sys, sched, 0, 5_000, 30_000)
	againRes, againTrace := runSched(t, fresh, sched, 0, 5_000, 30_000)
	if !reflect.DeepEqual(firstRes, againRes) {
		t.Errorf("results diverge after the build\nfirst: %+v\nagain: %+v", firstRes, againRes)
	}
	if !reflect.DeepEqual(firstTrace, againTrace) {
		t.Errorf("traces diverge after the build (first %d, again %d)", len(firstTrace), len(againTrace))
	}
}

// TestSnapshotRefusesChangedSystem pins each refusal of the warm-point
// contract: a system that has simulated a cycle, whose controller has a new
// scheduler, or whose cache holds a request, may differ from a fresh build
// in state a checkpoint does not carry, so Snapshot refuses it.
func TestSnapshotRefusesChangedSystem(t *testing.T) {
	cases := []struct {
		name   string
		shared bool
		change func(t *testing.T, sys *System) error
	}{
		{"one cycle", false, func(t *testing.T, sys *System) error {
			sys.Run(1)
			return nil
		}},
		{"SetScheduler", false, func(t *testing.T, sys *System) error {
			return sys.Controller().SetScheduler(memctrl.NewFRFCFS(4))
		}},
		{"ApplyScheme", false, func(t *testing.T, sys *System) error {
			ones := []float64{1, 1, 1, 1}
			return sys.ApplyScheme(core.Proportional(), ones, ones)
		}},
		{"request in a cache", true, func(t *testing.T, sys *System) error {
			if !sys.sharedL2.Access(0, &mem.Request{Addr: 1 << 40, Done: func(int64) {}}) {
				t.Fatal("access refused")
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := buildWarm(t, tc.shared)
			if err := tc.change(t, sys); err != nil {
				t.Fatal(err)
			}
			if got, err := sys.Snapshot(); err == nil || got != nil {
				t.Errorf("Snapshot = %v, %v; want a refusal", got, err)
			}
		})
	}
}

// TestResultEnergyError pins the energy-estimate error path: an invalid
// power configuration must surface in Result.EnergyError instead of being
// silently swallowed with a zero Energy.
func TestResultEnergyError(t *testing.T) {
	cfg := fastCfg()
	sys, err := New(cfg, mustProfiles(t, "milc"))
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup()
	sys.Run(20_000)
	res := sys.Results()
	if res.EnergyError != "" {
		t.Fatalf("valid power config produced energy error %q", res.EnergyError)
	}
	if res.Energy.TotalNJ() <= 0 {
		t.Fatalf("valid power config produced no energy estimate: %+v", res.Energy)
	}

	cfg.Power = &dram.PowerConfig{ActPreEnergyNJ: -1}
	sys2, err := New(cfg, mustProfiles(t, "milc"))
	if err != nil {
		t.Fatal(err)
	}
	sys2.Warmup()
	sys2.Run(20_000)
	res2 := sys2.Results()
	if res2.EnergyError == "" {
		t.Fatal("invalid power config produced no EnergyError")
	}
	if res2.Energy != (dram.Energy{}) {
		t.Fatalf("invalid power config still produced energy: %+v", res2.Energy)
	}
}

// TestAPIsIntoMatchesResults pins the allocation-free API accessor against
// the full Results path, and checks it does not allocate.
func TestAPIsIntoMatchesResults(t *testing.T) {
	sys, err := New(fastCfg(), mustProfiles(t, "lbm", "milc"))
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup()
	sys.Run(30_000)
	want := sys.Results().APIs()
	buf := make([]float64, 0, sys.NumApps())
	got := sys.APIsInto(buf)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("APIsInto %v, Results().APIs() %v", got, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = sys.APIsInto(buf)
	})
	if allocs != 0 {
		t.Errorf("APIsInto allocates %.1f times per call", allocs)
	}
	// A mark is a new value (its header and its rows), never a write into
	// the old one.
	if allocs := testing.AllocsPerRun(100, sys.ResetStats); allocs > 2 {
		t.Errorf("ResetStats allocates %.1f times per call, want at most 2", allocs)
	}
}

// TestRestoreRefusesOtherTopology: every cache's state has one type, so a
// warm-point checkpoint of the other L2 topology, another app count or
// another cache size type-checks. Building from it must be refused with the
// first mismatch, before anything is built: the refusal allocates less than
// one L1's lines, and the system forked from runs on as a twin that never
// saw the attempt. (The name predates building from a checkpoint; the
// suite's pinned test list keys on it.)
func TestRestoreRefusesOtherTopology(t *testing.T) {
	build := func(cfg Config, names ...string) *System {
		sys, err := New(cfg, mustProfiles(t, names...))
		if err != nil {
			t.Fatal(err)
		}
		sys.Warmup()
		return sys
	}
	private, shared, bigL1, bigL2 := fastCfg(), fastCfg(), fastCfg(), fastCfg()
	shared.SharedL2 = true
	bigL1.L1.SizeBytes *= 2
	bigL2.L2.SizeBytes *= 2
	four := []string{"lbm", "milc", "soplex", "povray"}
	cases := []struct {
		name      string
		from      Config
		fromNames []string
		into      Config
		intoNames []string
		want      string // in the refusal
	}{
		{"shared into private", shared, four, private, four, "checkpoint has 4 apps and 5 caches, system has 4 and 8"},
		{"private into shared", private, four, shared, four, "checkpoint has 4 apps and 8 caches, system has 4 and 5"},
		{"two apps into four", private, four[:2], private, four, "checkpoint has 2 apps"},
		// 1 shared L2 + 3 L1s = 4 caches, like the private two-app system.
		{"three shared apps into two private", shared, four[:3], private, four[:2], "checkpoint has 3 apps"},
		// The caches' count and kinds match; their sizes do not.
		{"same topology, doubled L1", bigL1, four[:2], private, four[:2], "cache L1: geometry mismatch"},
		{"same topology, doubled L2", bigL2, four[:2], private, four[:2], "cache L2: geometry mismatch"},
	}
	l1Bytes := uint64(10 * private.L1.SizeBytes / private.L1.LineBytes)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := build(tc.from, tc.fromNames...).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sys, twin := build(tc.into, tc.intoNames...), build(tc.into, tc.intoNames...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fork, err := sys.ForkAt(cp)
			runtime.ReadMemStats(&after)
			if err == nil || fork != nil {
				t.Fatal("checkpoint of another system accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("refusal %q does not say %q", err, tc.want)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= l1Bytes {
				t.Errorf("the refused fork allocated %d B, one L1's lines are %d B", got, l1Bytes)
			}
			if _, err2 := FromCheckpoint(tc.into, mustProfiles(t, tc.intoNames...), cp); err2 == nil || err2.Error() != err.Error() {
				t.Errorf("FromCheckpoint refused with %v, ForkAt with %v", err2, err)
			}
			got, gotTrace := measureTraced(sys, 2_000, 20_000)
			want, wantTrace := measureTraced(twin, 2_000, 20_000)
			if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(wantTrace, gotTrace) {
				t.Error("a refused fork changed the system forked from")
			}
		})
	}
}

// TestCheckpointBytesCeiling bounds what a prepared base keeps resident: one
// Snapshot of a warmed 4-core system allocates at most 10 B per cache line (a
// line snapshots as its tag and a 2-byte meta word) plus 8 KiB for the
// cache counters, the stream states and the headers (about 2 KiB measured).
func TestCheckpointBytesCeiling(t *testing.T) {
	sys := warmedHetero5(t)
	lines := len(sys.cores) * (sys.cfg.L1.SizeBytes/sys.cfg.L1.LineBytes + sys.cfg.L2.SizeBytes/sys.cfg.L2.LineBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cp, err := sys.Snapshot()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(cp)
	if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(10*lines+8<<10); got > ceiling {
		t.Errorf("Snapshot allocated %d B for %d cache lines, ceiling %d B", got, lines, ceiling)
	} else {
		t.Logf("Snapshot allocated %d B for %d cache lines (%.2f B a line), ceiling %d B", got, lines, float64(got)/float64(lines), ceiling)
	}
}

// TestForkBytesCeiling bounds what forking a prepared base allocates: a
// system built from a warmed 4-core checkpoint (FromCheckpoint, exper's
// forkPrepared path) allocates at most 10 B per cache line (a line lives as
// its tag and a 2-byte meta word, cloned from the checkpoint's) plus 20 KiB
// for every other component (19 408 B measured).
func TestForkBytesCeiling(t *testing.T) {
	sys := warmedHetero5(t)
	cp, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("hetero-5")
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mix.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	lines := len(sys.cores) * (sys.cfg.L1.SizeBytes/sys.cfg.L1.LineBytes + sys.cfg.L2.SizeBytes/sys.cfg.L2.LineBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fork, err := FromCheckpoint(sys.cfg, profs, cp)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(fork)
	if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(10*lines+20<<10); got > ceiling {
		t.Errorf("a fork allocated %d B for %d cache lines, ceiling %d B", got, lines, ceiling)
	} else {
		t.Logf("a fork allocated %d B for %d cache lines (%.2f B a line), ceiling %d B", got, lines, float64(got)/float64(lines), ceiling)
	}
}

// TestResetIsObservation: ResetStats only starts a measurement window, so an
// extra reset during settle must leave the measured window and the issue
// trace exactly as they are without it, for every scheduler and both L2
// topologies. A scheduler that keeps baselines of the controller's counters
// (STFM's slowdown window, TCM's usage quantum) fails this when a reset
// moves the counters under its baselines.
func TestResetIsObservation(t *testing.T) {
	const settle, extraAt, measure = 120_000, 13_001, 150_000
	for _, shared := range []bool{false, true} {
		for _, sched := range busySchedulers(4) {
			t.Run(fmt.Sprintf("shared=%v/%s", shared, sched.name), func(t *testing.T) {
				run := func(extra bool) (Result, []traceRec) {
					cfg := fastCfg()
					cfg.SharedL2 = shared
					sys, err := New(cfg, mustProfiles(t, "lbm", "milc", "soplex", "povray"))
					if err != nil {
						t.Fatal(err)
					}
					if err := sys.Controller().SetScheduler(sched.mk(t)); err != nil {
						t.Fatal(err)
					}
					var trace []traceRec
					sys.Controller().SetTracer(func(cycle int64, app int, addr uint64, write bool) {
						trace = append(trace, traceRec{cycle, app, addr, write})
					})
					sys.Warmup()
					if extra {
						sys.Run(extraAt)
						sys.ResetStats()
					}
					sys.Run(settle - sys.Now())
					sys.ResetStats()
					sys.Run(measure)
					return sys.Results(), trace
				}
				want, wantTrace := run(false)
				got, gotTrace := run(true)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("an extra reset changed the window\nwithout: %+v\nwith:    %+v", want, got)
				}
				if !reflect.DeepEqual(wantTrace, gotTrace) {
					t.Errorf("an extra reset changed the issue trace (%d records without, %d with)", len(wantTrace), len(gotTrace))
				}
			})
		}
	}
}
