package exper

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bwpart/internal/obs"
	"bwpart/internal/workload"
)

// TestRunGridForkedMatchesColdCells is the experiment-level differential
// check behind the forked sweep: every cell produced by RunGrid (one warmup
// per mix, forked per scheme, memoized) must be byte-for-byte equal — full
// Result, objective values, profile vectors — to the same cell simulated
// cold by the oracle (its own warmup per cell).
func TestRunGridForkedMatchesColdCells(t *testing.T) {
	r, err := NewRunner(Quick())
	if err != nil {
		t.Fatal(err)
	}
	cold := coldRunner(t, Quick())
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	schemes := []string{NoPartitioning, "equal", "priority-apc"}
	runs, err := r.RunGrid(context.Background(), []workload.Mix{mix}, schemes)
	if err != nil {
		t.Fatal(err)
	}
	for i, scheme := range schemes {
		want, err := coldRun(cold, GridCell{Mix: mix, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, runs[i]) {
			t.Errorf("%s: forked cell diverges from cold run\ncold: %+v\nfork: %+v", scheme, want, runs[i])
		}
	}
}

// TestCheckpointResume pins the save/resume cycle: a completed sweep leaves
// one file per cell; a fresh runner over the same store reproduces the sweep
// from disk without simulating anything; and a configuration change makes
// every stored cell a miss instead of serving stale results.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Quick()
	cfg.Checkpoint = store
	cfg.Obs = obs.NewCollector()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	schemes := []string{"equal", "square-root"}
	first, err := r.RunGrid(context.Background(), []workload.Mix{mix}, schemes)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(schemes) {
		t.Fatalf("sweep left %d checkpoint files, want %d: %v", len(files), len(schemes), files)
	}
	// The file name is the cell's content address under FingerprintVersion 3.
	// Pinning it keeps directories written by earlier builds loadable: a
	// change that moves it must bump FingerprintVersion on purpose.
	const equalCell = "v3-a091c3af5a2bbd2c-31226eeafe0127d57e4de8a7e9420bf70469e875662cb1809d5f0c1a35bc3ae1.json"
	if got := filepath.Base(store.cellPath(r.own.fp, GridCell{Mix: mix, Scheme: "equal"})); got != equalCell {
		t.Errorf("hetero-1/equal is stored as %s, earlier builds wrote %s", got, equalCell)
	}

	// A fresh runner (empty alone cache) resumes entirely from disk: no jobs
	// dispatched, results equal.
	cfg2 := cfg
	cfg2.Obs = obs.NewCollector()
	r2, err := NewRunner(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := r2.RunGrid(context.Background(), []workload.Mix{mix}, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, resumed) {
		t.Errorf("resumed sweep diverges from original\nfirst:   %+v\nresumed: %+v", first, resumed)
	}
	if s := cfg2.Obs.Snapshot(); s.Jobs.Total != 0 {
		t.Errorf("full resume still dispatched %d jobs", s.Jobs.Total)
	}

	// A changed configuration must not be served stale cells.
	cfg3 := cfg
	cfg3.Seed = cfg.Seed + 1
	r3, err := NewRunner(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(r3, mix, "equal"); ok {
		t.Error("checkpoint for a different configuration was served")
	}

	// A truncated file is a miss, not an error.
	if err := os.WriteFile(store.cellPath(r.own.fp, GridCell{Mix: mix, Scheme: "equal"}), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(r, mix, "equal"); ok {
		t.Error("corrupt checkpoint file was served")
	}
}

// TestCheckpointPartialResume deletes one cell of a finished sweep and
// re-runs: only the missing cell is simulated, and the merged results match
// the original sweep.
func TestCheckpointPartialResume(t *testing.T) {
	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Quick()
	cfg.Checkpoint = store
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("homo-1")
	if err != nil {
		t.Fatal(err)
	}
	schemes := []string{"equal", "proportional"}
	first, err := r.RunGrid(context.Background(), []workload.Mix{mix}, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(store.cellPath(r.own.fp, GridCell{Mix: mix, Scheme: "proportional"})); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Obs = obs.NewCollector()
	r2, err := NewRunner(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r2.RunGrid(context.Background(), []workload.Mix{mix}, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("partial resume diverges from original sweep")
	}
	// Exactly the missing cell (plus its mix's profiling/warmup jobs) ran;
	// the loaded cell must not have been re-simulated.
	if s := cfg2.Obs.Snapshot(); s.Jobs.Failed != 0 || s.Jobs.Finished == 0 {
		t.Errorf("bad resume counters: %+v", s.Jobs)
	}
}

// TestCheckpointStoreValidation covers constructor failure modes.
func TestCheckpointStoreValidation(t *testing.T) {
	if _, err := NewCheckpointStore(""); err == nil {
		t.Error("empty checkpoint dir accepted")
	}
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCheckpointStore(filepath.Join(file, "sub")); err == nil {
		t.Error("checkpoint dir under a regular file accepted")
	}
}

// TestSubSeedIndependence pins the repeatability seed derivation: sub-seeds
// of adjacent base seeds must not collide (the old base+i scheme made bases
// 1 and 2 share all but one sub-seed, correlating "independent" studies).
func TestSubSeedIndependence(t *testing.T) {
	const seeds = 16
	seen := map[int64]string{}
	for base := int64(1); base <= 3; base++ {
		for i := 0; i < seeds; i++ {
			s := subSeed(base, i)
			if s == base+int64(i) {
				t.Errorf("subSeed(%d,%d) degenerates to base+i", base, i)
			}
			if prev, dup := seen[s]; dup {
				t.Errorf("subSeed(%d,%d) = %d collides with %s", base, i, s, prev)
			}
			seen[s] = "earlier derivation"
		}
	}
	// Same inputs must stay deterministic.
	if subSeed(7, 3) != subSeed(7, 3) {
		t.Error("subSeed is not deterministic")
	}
}
