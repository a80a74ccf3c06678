package exper

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bwpart/internal/obs"
	"bwpart/internal/workload"
)

// These tests pin the one lookup order every cell takes — memory tier, disk
// tier promoting into memory, simulation — and its counter contract: each
// resolved cell increments exactly one of hits, coalesced, checkpoint_hits,
// misses, through RunGrid and RunMix alike.

// storeRunner builds a memoTestConfig runner with its own collector and a
// fresh result cache over a checkpoint store on dir: one "process" of a
// restart sequence.
func storeRunner(t *testing.T, dir string) (*Runner, *obs.Collector) {
	t.Helper()
	store, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := memoTestConfig()
	cfg.Checkpoint = store
	cfg.Obs = obs.NewCollector()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, cfg.Obs
}

// wantCache fails unless the collector's cell account reads exactly
// hits/misses/coalesced/checkpoint hits.
func wantCache(t *testing.T, when string, col *obs.Collector, hits, misses, coalesced, ckpt int64) obs.Snapshot {
	t.Helper()
	s := col.Snapshot()
	c := s.Cache
	if c.Hits != hits || c.Misses != misses || c.Coalesced != coalesced || c.CheckpointHits != ckpt {
		t.Errorf("%s: hits/misses/coalesced/checkpoint_hits = %d/%d/%d/%d, want %d/%d/%d/%d",
			when, c.Hits, c.Misses, c.Coalesced, c.CheckpointHits, hits, misses, coalesced, ckpt)
	}
	return s
}

// TestRunGridDiskHitsPromoteToMemory: with a checkpoint store, the disk tier
// is consulted once per cell per process. Simulated cells and disk hits both
// land in the memory tier, so the next RunGrid over them is all memory hits.
func TestRunGridDiskHitsPromoteToMemory(t *testing.T) {
	dir := t.TempDir()
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	mixes, schemes := []workload.Mix{mix}, []string{"equal", "square-root"}
	cells := int64(len(schemes))

	r1, col1 := storeRunner(t, dir)
	first, err := r1.RunGrid(context.Background(), mixes, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if s := wantCache(t, "cold grid", col1, 0, cells, 0, 0); s.Cache.Bytes <= 0 {
		t.Errorf("cold grid left cell_cache.bytes = %d, want > 0", s.Cache.Bytes)
	}
	if _, err := r1.RunGrid(context.Background(), mixes, schemes); err != nil {
		t.Fatal(err)
	}
	wantCache(t, "second grid, same process", col1, cells, cells, 0, 0)

	// Restart: the first grid comes off disk and fills the memory tier, the
	// second never reaches the disk. Neither dispatches a job or warms a base.
	r2, col2 := storeRunner(t, dir)
	resumed, err := r2.RunGrid(context.Background(), mixes, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if s := wantCache(t, "first grid after restart", col2, 0, 0, 0, cells); s.Cache.Bytes <= 0 {
		t.Errorf("disk hits left cell_cache.bytes = %d, want > 0 (not promoted)", s.Cache.Bytes)
	}
	again, err := r2.RunGrid(context.Background(), mixes, schemes)
	if err != nil {
		t.Fatal(err)
	}
	s := wantCache(t, "second grid after restart", col2, cells, 0, 0, cells)
	if s.Jobs.Total != 0 || stageCount(s, obs.StageWarmup) != 0 || stageCount(s, obs.StageProfile) != 0 {
		t.Errorf("resident grids dispatched %d jobs, %d warmups, %d profiles; want none",
			s.Jobs.Total, stageCount(s, obs.StageWarmup), stageCount(s, obs.StageProfile))
	}
	if !reflect.DeepEqual(first, resumed) || !reflect.DeepEqual(first, again) {
		t.Error("disk-tier or promoted cells diverge from the simulated ones")
	}
}

// TestRunCellsDeliversEveryCellOnce: the per-cell callback fires exactly
// once per cell whichever tier resolves it — a disk hit, a memory hit or a
// simulation — hands over the run RunCells returns at that index,
// never fires for a failed cell, and never fires after RunCells returns.
func TestRunCellsDeliversEveryCellOnce(t *testing.T) {
	dir := t.TempDir()
	mixes := make([]workload.Mix, 3)
	for i, name := range []string{"hetero-1", "hetero-2", "homo-1"} {
		var err error
		if mixes[i], err = workload.MixByName(name); err != nil {
			t.Fatal(err)
		}
	}
	schemes := []string{"equal", "square-root"}

	// hetero-1's cells go to disk in one process; the next process makes
	// hetero-2/equal memory-resident and leaves the other three cells cold,
	// so both workers deliver simulated cells.
	r1, _ := storeRunner(t, dir)
	if _, err := r1.RunGrid(context.Background(), mixes[:1], schemes); err != nil {
		t.Fatal(err)
	}
	r, col := storeRunner(t, dir)
	if _, err := r.RunMix(mixes[1], "equal"); err != nil {
		t.Fatal(err)
	}

	var (
		mu       sync.Mutex
		returned bool
		got      = map[int]*MixRun{}
		calls    int
	)
	each := func(cell int, run *MixRun) {
		mu.Lock()
		defer mu.Unlock()
		if returned {
			t.Errorf("cell %d delivered after RunCells returned", cell)
		}
		calls++
		got[cell] = run
	}
	runs, err := r.RunCells(context.Background(), Grid(mixes, schemes), each)
	mu.Lock()
	returned = true
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// One memory hit, two disk hits, three simulations (plus the setup miss).
	wantCache(t, "mixed-tier grid", col, 1, 4, 0, 2)
	if calls != len(runs) || len(got) != len(runs) {
		t.Fatalf("callback fired %d times over %d distinct cells, want %d each", calls, len(got), len(runs))
	}
	for i, cell := range Grid(mixes, schemes) {
		if runs[i].Mix.Name != cell.Mix.Name || runs[i].Scheme != cell.Scheme {
			t.Errorf("result %d is %s/%s, want %s/%s", i, runs[i].Mix.Name, runs[i].Scheme, cell.Mix.Name, cell.Scheme)
		}
		if got[i] != runs[i] {
			t.Errorf("cell %d: callback saw a different run than RunCells returned", i)
		}
	}

	// A failing cell is never delivered.
	mu.Lock()
	returned, calls, got = false, 0, map[int]*MixRun{}
	mu.Unlock()
	bad := []string{"no-such-scheme", "equal"}
	if _, err := r.RunCells(context.Background(), Grid(mixes[1:2], bad), each); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	mu.Lock()
	returned = true
	if _, ok := got[0]; ok || calls != 1 {
		t.Errorf("failing grid delivered cells %v (%d calls), want only the resident cell 1", got, calls)
	}
	mu.Unlock()
}

// TestRunGridHitsLeaveWarmBasesAlone cycles one-cell RunGrid hits over all 14
// Table IV mixes — more than the registry's 8 warm bases. A hit must not pin,
// re-warm, evict, or fork anything: it never reaches the simulation phases.
func TestRunGridHitsLeaveWarmBasesAlone(t *testing.T) {
	r, col := storeRunner(t, t.TempDir())
	mixes := workload.AllMixes()
	if len(mixes) != 14 {
		t.Fatalf("Table IV has %d mixes, want 14", len(mixes))
	}
	schemes := []string{"equal"}
	if _, err := r.RunGrid(context.Background(), mixes, schemes); err != nil {
		t.Fatal(err)
	}
	before := col.Snapshot()
	for pass := 0; pass < 2; pass++ {
		for _, mix := range mixes {
			if _, err := r.RunGrid(context.Background(), []workload.Mix{mix}, schemes); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := col.Snapshot()
	if got, want := after.Cache.Hits-before.Cache.Hits, int64(2*len(mixes)); got != want {
		t.Errorf("hit passes recorded %d hits, want %d", got, want)
	}
	if d := stageCount(after, obs.StageWarmup) - stageCount(before, obs.StageWarmup); d != 0 {
		t.Errorf("hits re-warmed %d bases", d)
	}
	if d := after.Cache.PreparedEvictions - before.Cache.PreparedEvictions; d != 0 {
		t.Errorf("hits evicted %d warm bases", d)
	}
	if d := after.Cache.WarmForks - before.Cache.WarmForks; d != 0 {
		t.Errorf("hits forked %d warm bases", d)
	}
	if d := after.Jobs.Total - before.Jobs.Total; d != 0 {
		t.Errorf("hits dispatched %d jobs", d)
	}
}

// TestResidentMatchesSimulated: whichever tier answers — memory, disk, or
// either one through an aliased mix — the cell equals the cold reference
// run of the requested mix, labels included.
func TestResidentMatchesSimulated(t *testing.T) {
	coldCfg := memoTestConfig()
	coldCfg.NoMemoize = true
	cold, err := NewRunner(coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	hetero5, err := workload.MixByName("hetero-5")
	if err != nil {
		t.Fatal(err)
	}
	motivation := workload.MotivationMix()
	want := map[string]*MixRun{}
	for _, mix := range []workload.Mix{hetero5, motivation} {
		if want[mix.Name], err = cold.RunMix(mix, "equal"); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, r *Runner, mix workload.Mix) {
		t.Helper()
		got, err := r.RunMix(mix, "equal")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[mix.Name]) {
			t.Errorf("%s: %s diverges from the cold run\ngot:  %+v\nwant: %+v", when, mix.Name, got, want[mix.Name])
		}
	}

	dir := t.TempDir()
	r1, col1 := storeRunner(t, dir)
	check("simulated", r1, hetero5)
	check("memory hit", r1, hetero5)
	check("aliased memory hit", r1, motivation)
	wantCache(t, "first process", col1, 2, 1, 0, 0)

	r2, col2 := storeRunner(t, dir)
	check("aliased disk hit", r2, motivation)
	check("promoted aliased hit", r2, hetero5)
	wantCache(t, "restarted process", col2, 1, 0, 0, 1)

	r3, col3 := storeRunner(t, dir)
	check("disk hit", r3, hetero5)
	wantCache(t, "second restart", col3, 0, 0, 0, 1)
}

// TestDiskHitSingleFlight floods one checkpointed cell of a restarted runner
// with concurrent one-cell grids: the file is loaded once, everyone else hits
// or coalesces onto that load, and nothing is simulated.
func TestDiskHitSingleFlight(t *testing.T) {
	dir := t.TempDir()
	mix, err := workload.MixByName("homo-1")
	if err != nil {
		t.Fatal(err)
	}
	mixes, schemes := []workload.Mix{mix}, []string{"equal"}
	r1, _ := storeRunner(t, dir)
	first, err := r1.RunGrid(context.Background(), mixes, schemes)
	if err != nil {
		t.Fatal(err)
	}

	r2, col := storeRunner(t, dir)
	const n = 8
	runs := make([][]*MixRun, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			runs[i], errs[i] = r2.RunGrid(context.Background(), mixes, schemes)
		}(i)
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatalf("concurrent grid %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(runs[i], first) {
			t.Errorf("concurrent grid %d diverges from the simulated cell", i)
		}
	}
	s := col.Snapshot()
	if s.Cache.CheckpointHits != 1 || s.Cache.Misses != 0 || s.Cache.Hits+s.Cache.Coalesced != n-1 {
		t.Errorf("%d concurrent disk hits recorded %+v, want 1 checkpoint hit, 0 misses, %d hits+coalesced",
			n, s.Cache, n-1)
	}
	if s.Jobs.Total != 0 || stageCount(s, obs.StageWarmup) != 0 {
		t.Errorf("disk hits dispatched %d jobs and %d warmups, want none", s.Jobs.Total, stageCount(s, obs.StageWarmup))
	}
}

// TestCheckpointKeyedLikeMemoryTier: the disk tier identifies a cell by its
// benchmark list, not its display name. Two same-named mixes over different
// benchmarks cannot alias (neither through the file name nor through a
// planted payload), and aliased mixes share one file. An online cell loads
// back with its estimates, and its payload planted at the path of another
// epoch length is refused.
func TestCheckpointKeyedLikeMemoryTier(t *testing.T) {
	dir := t.TempDir()
	r, col := storeRunner(t, dir)
	store := r.Config().Checkpoint
	hetero5, err := workload.MixByName("hetero-5")
	if err != nil {
		t.Fatal(err)
	}
	run, err := r.RunMix(hetero5, "equal")
	if err != nil {
		t.Fatal(err)
	}

	impostor, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	impostor.Name = hetero5.Name
	if _, ok := store.Load(r, impostor, "equal"); ok {
		t.Fatal("a same-named mix over different benchmarks was served hetero-5's cell")
	}
	// Even hetero-5's payload planted at the impostor's own path is refused:
	// its benchmark list is not the requested one.
	data, err := os.ReadFile(store.cellPath(r.own.fp, GridCell{Mix: hetero5, Scheme: "equal"}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.cellPath(r.own.fp, GridCell{Mix: impostor, Scheme: "equal"}), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(r, impostor, "equal"); ok {
		t.Error("Load accepted a payload recorded for a different benchmark list")
	}
	if _, ok := store.Load(r, hetero5, "square-root"); ok {
		t.Error("Load served a scheme that was never saved")
	}

	// The motivation mix is hetero-5 under another name: one file serves both.
	if got, ok := store.Load(r, workload.MotivationMix(), "equal"); !ok || !reflect.DeepEqual(got.Result, run.Result) {
		t.Error("aliased mix does not share hetero-5's checkpoint file")
	}
	if _, err := r.RunMix(workload.MotivationMix(), "equal"); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 { // hetero-5's cell and the planted impostor file
		t.Errorf("directory holds %d cell files, want 2: %v", len(files), files)
	}
	wantCache(t, "aliased pair", col, 1, 1, 0, 0)

	online := GridCell{Mix: hetero5, Scheme: "online:square-root", Epoch: 20_000, Epochs: 2}
	orun, err := r.RunOnline(hetero5, "square-root", online.Epoch, online.Epochs)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := store.load(r.own.fp, online); got == nil || len(got.EstimatedAPCAlone) == 0 || !reflect.DeepEqual(got, orun) {
		t.Errorf("online cell does not load back with its estimates: %+v", got)
	}
	data, err = os.ReadFile(store.cellPath(r.own.fp, online))
	if err != nil {
		t.Fatal(err)
	}
	longer := online
	longer.Epoch *= 2
	if err := os.WriteFile(store.cellPath(r.own.fp, longer), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := store.load(r.own.fp, longer); got != nil {
		t.Error("load accepted a payload recorded for another epoch length")
	}
}

// TestResidentProbeHandsOverToSimulation: a full lookup that joins a
// resident-only flight must not inherit its "not resident" verdict — when the
// probe finds nothing, the joiner takes the cell over and simulates it, and
// the cell is counted once (a miss), not also as coalesced.
func TestResidentProbeHandsOverToSimulation(t *testing.T) {
	c := NewResultCache()
	col := obs.NewCollector()
	want := &MixRun{Scheme: "equal"}
	probing, release := make(chan struct{}), make(chan struct{})
	var loads, sims int
	var mu sync.Mutex
	load := func() (*MixRun, []byte) {
		mu.Lock()
		loads++
		first := loads == 1
		mu.Unlock()
		if first {
			close(probing)
			<-release
		}
		return nil, nil
	}
	probeErr := make(chan error, 1)
	go func() {
		_, err := c.flight("k", col, load, nil, true)
		probeErr <- err
	}()
	<-probing
	got := make(chan *MixRun, 1)
	go func() {
		f, err := c.flight("k", col, load, func() (*MixRun, error) {
			mu.Lock()
			sims++
			mu.Unlock()
			return want, nil
		}, true)
		if err != nil {
			t.Error(err)
			got <- nil
			return
		}
		got <- f.val.run
	}()
	// Wait for the full lookup to join the probe's flight (its touch bumps
	// the LRU clock past the leader's), then let the probe miss.
	for joined := false; !joined; runtime.Gosched() {
		c.mu.Lock()
		joined = c.clock >= 2
		c.mu.Unlock()
	}
	close(release)
	if err := <-probeErr; err != errNotResident {
		t.Errorf("resident-only probe returned %v, want errNotResident", err)
	}
	if run := <-got; !reflect.DeepEqual(run, want) {
		t.Errorf("joiner got %+v, want the simulated cell", run)
	}
	if loads != 2 || sims != 1 {
		t.Errorf("loads/sims = %d/%d, want 2/1", loads, sims)
	}
	wantCache(t, "probe then simulation", col, 0, 1, 0, 0)
}

// TestDiskPromotionKeepsFileBytes: a cell promoted from disk answers with the
// bytes it was read from, never a re-encoding — here a file rewritten
// indented (still a valid cell) comes back verbatim, newline added.
func TestDiskPromotionKeepsFileBytes(t *testing.T) {
	dir := t.TempDir()
	mix, err := workload.MixByName("homo-1")
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := storeRunner(t, dir)
	run, err := r1.RunMix(mix, "equal")
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(run, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(r1.cfg.Checkpoint.cellPath(r1.own.fp, GridCell{Mix: mix, Scheme: "equal"}), indented, 0o644); err != nil {
		t.Fatal(err)
	}
	r2, col := storeRunner(t, dir)
	for i := 0; i < 2; i++ { // the disk hit, then the memory hit it promoted
		got, err := r2.ResidentJSON(GridCell{Mix: mix, Scheme: "equal"})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(indented, '\n')) {
			t.Errorf("hit %d: body is not the checkpoint file's bytes plus a newline", i)
		}
	}
	wantCache(t, "promoted", col, 1, 0, 0, 1)
}

// TestRunGridRejectedPolicyFailsFast: a grid with a cell whose policy the
// registry rejects fails from the first pass, naming that cell, before any
// benchmark is profiled, any base warmed or any job dispatched.
func TestRunGridRejectedPolicyFailsFast(t *testing.T) {
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
	_, err = r.RunGrid(context.Background(), []workload.Mix{mix}, []string{"equal", "bogus-scheme", "online:square-root"})
	if err == nil || !strings.Contains(err.Error(), "cell 1 (hetero-1/bogus-scheme)") {
		t.Fatalf("error %v does not name the lowest-index rejected cell", err)
	}
	s := cfg.Obs.Snapshot()
	if len(s.Stages) != 0 || s.Jobs.Total != 0 {
		t.Errorf("a rejected grid ran stages %+v and %d jobs, want none", s.Stages, s.Jobs.Total)
	}
}

// TestRepeatabilityRerunIsAllHits: a second Repeatability on the same runner
// reads every seed's cell from the result cache and dispatches no job, as a
// resident grid does.
func TestRepeatabilityRerunIsAllHits(t *testing.T) {
	const seeds = 2
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
	first, err := r.Repeatability(mix, "equal", seeds)
	if err != nil {
		t.Fatal(err)
	}
	before := cfg.Obs.Snapshot()
	second, err := r.Repeatability(mix, "equal", seeds)
	if err != nil {
		t.Fatal(err)
	}
	after := cfg.Obs.Snapshot()
	if before.Jobs.Total != seeds {
		t.Errorf("first pass counted %d jobs, want %d", before.Jobs.Total, seeds)
	}
	if jobs, hits := after.Jobs.Total-before.Jobs.Total, after.Cache.Hits-before.Cache.Hits; jobs != 0 || hits != seeds {
		t.Errorf("rerun added %d jobs and %d hits, want 0 and %d", jobs, hits, seeds)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("rerun differs:\n%s\n%s", first, second)
	}
}

// TestRunCellsRepeatedCellIsOneJob: a batch that names one missing cell twice
// starts one job for it and counts the repeat as coalesced, on every run, yet
// delivers a run and calls each once for every index; the repeat gets the
// first index's run.
func TestRunCellsRepeatedCellIsOneJob(t *testing.T) {
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
	cells := []GridCell{{Mix: mix, Scheme: "equal"}, {Mix: mix, Scheme: "square-root"}, {Mix: mix, Scheme: "equal"}}
	var mu sync.Mutex
	calls := map[int]int{}
	runs, err := r.RunCells(context.Background(), cells, func(ci int, _ *MixRun) {
		mu.Lock()
		calls[ci]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Obs.Snapshot()
	if s.Jobs.Total != 2 || s.Cache.Misses != 2 || s.Cache.Coalesced != 1 || s.Cache.Hits != 0 {
		t.Errorf("jobs %d, misses %d, coalesced %d, hits %d; want 2, 2, 1, 0",
			s.Jobs.Total, s.Cache.Misses, s.Cache.Coalesced, s.Cache.Hits)
	}
	if want := map[int]int{0: 1, 1: 1, 2: 1}; !reflect.DeepEqual(calls, want) {
		t.Errorf("each called %v times per index, want %v", calls, want)
	}
	if runs[2] != runs[0] {
		t.Error("the repeated cell's run is not the first index's run")
	}
}
