package exper

import (
	"errors"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"bwpart/internal/obs"
	"bwpart/internal/workload"
)

// memoTestConfig shrinks the windows below Quick(): the memoization tests
// compare memoized against cold executions of the same cells, so they pay
// many simulations and only care about bit-identity, not about reproducing
// the paper's orderings.
func memoTestConfig() Config {
	cfg := Quick()
	cfg.Sim.WarmupInstructions = 60_000
	cfg.ProfileCycles = 150_000
	cfg.SettleCycles = 30_000
	cfg.MeasureCycles = 150_000
	return cfg
}

// stageCount extracts one stage's invocation count from a snapshot.
func stageCount(s obs.Snapshot, name string) int64 {
	for _, st := range s.Stages {
		if st.Name == name {
			return st.Count
		}
	}
	return 0
}

// TestCellMemoizationSingleFlight floods one cell with concurrent RunMix
// calls: exactly one simulation (one warmup) may run, every other caller is
// a hit or coalesces onto the flight, and all callers get equal results on
// distinct (isolated) allocations.
func TestCellMemoizationSingleFlight(t *testing.T) {
	cfg := memoTestConfig()
	cfg.Obs = obs.NewCollector()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	runs := make([]*MixRun, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			runs[i], errs[i] = r.RunMix(mix, "equal")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent RunMix %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if runs[i] == runs[0] {
			t.Errorf("callers %d and 0 share one MixRun allocation", i)
		}
		if !reflect.DeepEqual(runs[i], runs[0]) {
			t.Errorf("caller %d got a different result", i)
		}
	}
	s := cfg.Obs.Snapshot()
	if s.Cache.Misses != 1 {
		t.Errorf("cell simulated %d times, want 1", s.Cache.Misses)
	}
	if got := s.Cache.Hits + s.Cache.Coalesced; got != n-1 {
		t.Errorf("hits+coalesced = %d, want %d (snapshot: %+v)", got, n-1, s.Cache)
	}
	if got := stageCount(s, obs.StageWarmup); got != 1 {
		t.Errorf("functional warmup ran %d times, want 1", got)
	}
}

// TestResultDeepCopyIsolation mutates everything mutable in a returned
// MixRun and checks the cache still serves the pristine result (equal to a
// cold reference run).
func TestResultDeepCopyIsolation(t *testing.T) {
	r, err := NewRunner(memoTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	coldCfg := memoTestConfig()
	coldCfg.NoMemoize = true
	cold, err := NewRunner(coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("hetero-2")
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.RunMix(mix, "square-root")
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize every shared-able field of the returned copy.
	first.Scheme = "corrupted"
	first.Mix.Benchmarks[0] = "corrupted"
	first.IPCAlone[0] = -1
	first.APCAlone[0] = -1
	first.API[0] = -1
	first.Result.Apps[0].IPC = -1
	for obj := range first.Values {
		first.Values[obj] = -1
	}
	second, err := r.RunMix(mix, "square-root")
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.RunMix(mix, "square-root")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, want) {
		t.Errorf("cache served a corrupted cell after caller mutation\ngot:  %+v\nwant: %+v", second, want)
	}
}

// TestContentAddressedAliasing runs the motivation mix and hetero-5 — the
// same four applications under two display names — and checks the second
// request is a pure cache hit (one simulation, one warmup) whose returned
// copy is restamped with the requested mix's labels.
func TestContentAddressedAliasing(t *testing.T) {
	cfg := memoTestConfig()
	cfg.Obs = obs.NewCollector()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	motivation := workload.MotivationMix()
	hetero5, err := workload.MixByName("hetero-5")
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.RunMix(motivation, "equal")
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.RunMix(hetero5, "equal")
	if err != nil {
		t.Fatal(err)
	}
	if first.Mix.Name != motivation.Name || second.Mix.Name != hetero5.Name {
		t.Errorf("returned labels %q/%q, want %q/%q",
			first.Mix.Name, second.Mix.Name, motivation.Name, hetero5.Name)
	}
	if second.Mix.PaperRSD != hetero5.PaperRSD {
		t.Errorf("aliased hit lost PaperRSD: got %v, want %v", second.Mix.PaperRSD, hetero5.PaperRSD)
	}
	// Labels aside, the aliased cell must be the same measurement.
	a, b := *first, *second
	a.Mix, b.Mix = workload.Mix{}, workload.Mix{}
	if !reflect.DeepEqual(a, b) {
		t.Error("aliased mixes returned different measurements")
	}
	s := cfg.Obs.Snapshot()
	if s.Cache.Misses != 1 || s.Cache.Hits != 1 {
		t.Errorf("aliased pair recorded %+v, want 1 miss + 1 hit", s.Cache)
	}
	if got := stageCount(s, obs.StageWarmup); got != 1 {
		t.Errorf("aliased pair warmed %d times, want 1", got)
	}
}

// TestPreparedLRUEvictionRewarms forces the warm-base bound down to one
// mix and alternates mixes: each return to an evicted mix must re-warm (no
// stale base reuse) and still produce cells bit-identical to cold runs.
func TestPreparedLRUEvictionRewarms(t *testing.T) {
	cfg := memoTestConfig()
	cfg.Obs = obs.NewCollector()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.prepared.setCap(1)
	coldCfg := memoTestConfig()
	coldCfg.NoMemoize = true
	cold, err := NewRunner(coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	mixA, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	mixB, err := workload.MixByName("homo-1")
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		mix    workload.Mix
		scheme string
	}{
		{mixA, "equal"},
		{mixB, "equal"},       // evicts A's base
		{mixA, "square-root"}, // A re-warms, evicts B's base
	}
	for i, st := range steps {
		got, err := r.RunMix(st.mix, st.scheme)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.RunMix(st.mix, st.scheme)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("step %d (%s/%s): post-eviction cell diverges from cold run", i, st.mix.Name, st.scheme)
		}
	}
	s := cfg.Obs.Snapshot()
	if got := stageCount(s, obs.StageWarmup); got != 3 {
		t.Errorf("functional warmup ran %d times, want 3 (A, B, A re-warmed)", got)
	}
	if s.Cache.PreparedEvictions != 2 {
		t.Errorf("recorded %d prepared-base evictions, want 2", s.Cache.PreparedEvictions)
	}
}

// TestFigureSuiteMemoizedMatchesCold is the full-figures differential: one
// memoized runner producing Figure 1, Figure 2, and Figure 3 back to back —
// cells shared across figures deduplicated, bases shared within mixes —
// must reproduce exactly what independent cold runs produce.
func TestFigureSuiteMemoizedMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure suite differential")
	}
	cfg := memoTestConfig()
	cfg.Obs = obs.NewCollector()
	warm, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldCfg := memoTestConfig()
	coldCfg.NoMemoize = true
	cold, err := NewRunner(coldCfg)
	if err != nil {
		t.Fatal(err)
	}

	wf1, err := warm.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	wf2, err := warm.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	wf3, err := warm.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	cf1, err := cold.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	cf2, err := cold.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	cf3, err := cold.Figure3()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(wf1, cf1) {
		t.Errorf("Figure1 memoized diverges from cold:\nmemo: %s\ncold: %s", wf1, cf1)
	}
	if !reflect.DeepEqual(wf2, cf2) {
		t.Errorf("Figure2 memoized diverges from cold:\nmemo: %s\ncold: %s", wf2, cf2)
	}
	if !reflect.DeepEqual(wf3, cf3) {
		t.Errorf("Figure3 memoized diverges from cold:\nmemo: %s\ncold: %s", wf3, cf3)
	}

	// The suite shares cells across figures (Figure 1's mix and Figure 3's
	// baselines reappear in Figure 2's grid), so dedup must have happened.
	s := cfg.Obs.Snapshot()
	if s.Cache.Hits == 0 {
		t.Errorf("figure suite recorded no cache hits: %+v", s.Cache)
	}
	requested := s.Cache.Hits + s.Cache.Misses + s.Cache.Coalesced
	if s.Cache.Misses >= requested {
		t.Errorf("no deduplication: %d simulations for %d requests", s.Cache.Misses, requested)
	}
}

// TestHeuristicsSharedBaseMatchesCold pins the heuristic path (explicit
// scheduler installed on a fork of the shared warm base) and an online cell
// (its epoch loop run on such a fork) against the cold reference executor,
// which warms a system of its own per cell.
func TestHeuristicsSharedBaseMatchesCold(t *testing.T) {
	cfg := memoTestConfig()
	warm, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldCfg := memoTestConfig()
	coldCfg.NoMemoize = true
	cold, err := NewRunner(coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	mixes := workload.HeteroMixes()[:1]
	wh, err := warm.RunHeuristics(mixes)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cold.RunHeuristics(mixes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wh, ch) {
		t.Errorf("heuristic study on shared warm bases diverges from cold:\nmemo: %s\ncold: %s", wh, ch)
	}
	wo, err := warm.RunOnline(mixes[0], "square-root", 40_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	co, err := cold.RunOnline(mixes[0], "square-root", 40_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wo, co) {
		t.Errorf("online cell on a shared warm base diverges from cold:\nmemo: %+v\ncold: %+v", wo, co)
	}
}

// TestStudiesRerunFromCells runs every study whose windowed runs are cells
// — heuristics, enforcement, mechanism, Figure 3, the page-policy ablation
// and the shared-L2 study, the last two on derived runners, an online run and
// the interval study — twice on one runner with tiny windows. The second pass
// must be all result-cache hits: no simulation, no warm-base fork, no settle
// (epoch loop) or measurement window, and the same tables.
func TestStudiesRerunFromCells(t *testing.T) {
	cfg := Quick()
	cfg.Sim.WarmupInstructions = 5_000
	cfg.ProfileCycles = 20_000
	cfg.SettleCycles = 2_000
	cfg.MeasureCycles = 20_000
	cfg.Obs = obs.NewCollector()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hetero := workload.HeteroMixes()[:2]
	homo1, err := workload.MixByName("homo-1")
	if err != nil {
		t.Fatal(err)
	}
	hetero5, err := workload.MixByName("hetero-5")
	if err != nil {
		t.Fatal(err)
	}
	studies := []func() (*Table, error){
		func() (*Table, error) { return r.RunHeuristics(hetero) },
		func() (*Table, error) { return r.EnforcementStudy(hetero[:1]) },
		func() (*Table, error) { return r.MechanismStudy(hetero[:1]) },
		r.Figure3,
		func() (*Table, error) { return r.PagePolicyStudy(hetero[:1]) },
		func() (*Table, error) { return r.SharedL2Study(homo1, [][]int{{2, 2, 2, 2}}) },
		func() (*Table, error) {
			run, err := r.RunOnline(hetero5, "square-root", 10_000, 2)
			if err != nil {
				return nil, err
			}
			return onlineTable(run), nil
		},
		func() (*Table, error) { return r.IntervalStudy(hetero5, "equal", []int64{200_000, 300_000}) },
	}
	pass := func() []string {
		var out []string
		for _, study := range studies {
			tab, err := study()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tab.String())
		}
		return out
	}
	stages := func(s obs.Snapshot) map[string]int64 {
		m := map[string]int64{}
		for _, st := range s.Stages {
			m[st.Name] = st.Count
		}
		return m
	}
	first := pass()
	before := cfg.Obs.Snapshot()
	second := pass()
	after := cfg.Obs.Snapshot()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("rerun tables differ:\n%s\nvs\n%s", first, second)
	}
	if d := after.Cache.Misses - before.Cache.Misses; d != 0 {
		t.Errorf("rerun simulated %d cells", d)
	}
	if d := after.Cache.WarmForks - before.Cache.WarmForks; d != 0 {
		t.Errorf("rerun forked %d warm bases", d)
	}
	b, a := stages(before), stages(after)
	for _, stage := range []string{obs.StageWarmup, obs.StageSettle, obs.StageMeasure} {
		if d := a[stage] - b[stage]; d != 0 {
			t.Errorf("rerun ran %d %s stages", d, stage)
		}
	}
	if before.Cache.Misses == 0 || after.Cache.Hits == before.Cache.Hits {
		t.Errorf("first pass simulated %d cells, rerun hit %d: the studies bypass the cell cache",
			before.Cache.Misses, after.Cache.Hits-before.Cache.Hits)
	}
}

// memoKeys lists the keys m holds, sorted.
func memoKeys[V any](m *memo[V]) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.entries))
	for k := range m.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// waitClock spins until m has served n gets: a caller's get has reached the
// table (and, for a key in flight, joined its build) once the clock counts it.
func waitClock[V any](m *memo[V], n int64) {
	for {
		m.mu.Lock()
		c := m.clock
		m.mu.Unlock()
		if c >= n {
			return
		}
		runtime.Gosched()
	}
}

// constBuild builds v at cost.
func constBuild(v int, cost int64) func() (int, int64, error) {
	return func() (int, int64, error) { return v, cost, nil }
}

// TestMemoSingleFlight: concurrent gets of one key run its build once; one
// caller leads it and every other joins it.
func TestMemoSingleFlight(t *testing.T) {
	const callers = 8
	m := newMemo[int](0, nil)
	release := make(chan struct{})
	var builds atomic.Int32
	build := func() (int, int64, error) {
		builds.Add(1)
		<-release
		return 42, 0, nil
	}
	var wg sync.WaitGroup
	hows := make([]found, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, how, err := m.get("k", nil, true, false, build)
			if err != nil || e.val != 42 {
				t.Errorf("caller %d: %v, %v", i, e, err)
			}
			hows[i] = how
		}(i)
	}
	waitClock(&m, callers)
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds, want 1", n)
	}
	count := map[found]int{}
	for _, how := range hows {
		count[how]++
	}
	if count[led] != 1 || count[coalesced] != callers-1 {
		t.Errorf("led/coalesced/hit = %d/%d/%d, want 1/%d/0", count[led], count[coalesced], count[hit], callers-1)
	}
	if _, how, _ := m.get("k", nil, true, false, build); how != hit || builds.Load() != 1 {
		t.Errorf("a get after the build was %v with %d builds, want a hit and 1", how, builds.Load())
	}
}

// TestMemoForgetsFailedBuild: a failed build is not kept, so the next get of
// its key builds again.
func TestMemoForgetsFailedBuild(t *testing.T) {
	m := newMemo[int](0, nil)
	boom := errors.New("boom")
	if _, how, err := m.get("k", nil, true, false, func() (int, int64, error) { return 0, 0, boom }); err != boom || how != led {
		t.Fatalf("failed build: %v, %v; want boom, led", how, err)
	}
	if keys := memoKeys(&m); len(keys) != 0 {
		t.Fatalf("failed build kept as %v", keys)
	}
	if e, how, err := m.get("k", nil, true, false, constBuild(7, 0)); err != nil || how != led || e.val != 7 {
		t.Fatalf("retry: %v, %v; want a new build of 7", how, err)
	}
}

// TestMemoPanicPublishesToWaiter: a panicking build fails the caller waiting
// on it with errBuildPanicked instead of leaving it blocked, the panic goes on
// up the leader's stack, and the next get builds the key afresh.
func TestMemoPanicPublishesToWaiter(t *testing.T) {
	m := newMemo[int](0, nil)
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		m.get("k", nil, true, true, func() (int, int64, error) {
			<-release
			panic("build exploded")
		})
	}()
	waitClock(&m, 1)
	waited := make(chan error, 1)
	go func() {
		_, how, err := m.get("k", nil, true, true, constBuild(1, 0))
		if how != coalesced {
			t.Errorf("waiter was %v, want coalesced", how)
		}
		waited <- err
	}()
	waitClock(&m, 2)
	close(release)
	if err := <-waited; err != errBuildPanicked {
		t.Errorf("waiter got %v, want errBuildPanicked", err)
	}
	if p := <-recovered; p != "build exploded" {
		t.Errorf("leader recovered %v, want the build's panic", p)
	}
	if keys := memoKeys(&m); len(keys) != 0 {
		t.Fatalf("panicked build kept as %v", keys)
	}
	if e, how, err := m.get("k", nil, true, false, constBuild(3, 0)); err != nil || how != led || e.val != 3 {
		t.Fatalf("after the panic: %v, %v; want a new build of 3", how, err)
	}
}

// TestMemoTrimSkipsPinned: eviction never takes a pinned entry, even the
// least recently used one, and the memo stays over its bound while everything
// is pinned; unpinning trims.
func TestMemoTrimSkipsPinned(t *testing.T) {
	var evicted int64
	m := newMemo[int](1, func(_ *obs.Collector, n, _ int64) { evicted += n })
	a, _, _ := m.get("a", nil, true, true, constBuild(1, 1))
	m.get("b", nil, true, false, constBuild(2, 1))
	if keys := memoKeys(&m); !reflect.DeepEqual(keys, []string{"a"}) {
		t.Fatalf("after publishing an unpinned b over a pinned a: %v, want [a]", keys)
	}
	c, _, _ := m.get("c", nil, true, true, constBuild(3, 1))
	if keys := memoKeys(&m); !reflect.DeepEqual(keys, []string{"a", "c"}) || m.cost != 2 {
		t.Fatalf("everything pinned: %v at cost %d, want [a c] at 2", keys, m.cost)
	}
	m.unpin(a, nil)
	if keys := memoKeys(&m); !reflect.DeepEqual(keys, []string{"c"}) || m.cost != 1 || evicted != 2 {
		t.Fatalf("after unpinning a: %v at cost %d with %d evictions, want [c] at 1 with 2", keys, m.cost, evicted)
	}
	m.unpin(c, nil)
	if keys := memoKeys(&m); !reflect.DeepEqual(keys, []string{"c"}) {
		t.Fatalf("unpinning c within the bound evicted it: %v", keys)
	}
}

// TestMemoEvictsLeastRecentlyUsed: past the bound, the entry whose last get is
// oldest goes, and a hit counts as use.
func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	m := newMemo[int](2, nil)
	m.get("a", nil, true, false, constBuild(1, 1))
	m.get("b", nil, true, false, constBuild(2, 1))
	if _, how, _ := m.get("a", nil, true, false, constBuild(0, 1)); how != hit {
		t.Fatalf("second get of a was %v, want a hit", how)
	}
	m.get("c", nil, true, false, constBuild(3, 1))
	if keys := memoKeys(&m); !reflect.DeepEqual(keys, []string{"a", "c"}) {
		t.Fatalf("after publishing c: %v, want b (least recently used) gone", keys)
	}
	m.trim(1, nil)
	if keys := memoKeys(&m); !reflect.DeepEqual(keys, []string{"c"}) {
		t.Fatalf("after shrinking the bound: %v, want a gone", keys)
	}
}

// TestMemoNoWaitInFlight: a get that will not wait is told errNotResident for
// a build in flight and runs no build of its own; once the build is published
// it is a hit.
func TestMemoNoWaitInFlight(t *testing.T) {
	m := newMemo[int](0, nil)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.get("k", nil, true, false, func() (int, int64, error) {
			<-release
			return 5, 0, nil
		})
	}()
	waitClock(&m, 1)
	e, how, err := m.get("k", nil, false, true, func() (int, int64, error) {
		t.Error("a get without wait ran a build")
		return 0, 0, nil
	})
	if err != errNotResident || how != coalesced || e != nil {
		t.Errorf("get without wait on a build in flight: %v, %v, %v; want errNotResident", e, how, err)
	}
	close(release)
	<-done
	if e, how, err := m.get("k", nil, false, false, constBuild(0, 0)); err != nil || how != hit || e.val != 5 || e.pins != 0 {
		t.Errorf("get without wait on the published entry: %v, %v; want a hit on 5 with no pin", how, err)
	}
}
