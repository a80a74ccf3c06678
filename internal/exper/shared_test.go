package exper

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"bwpart/internal/obs"
	"bwpart/internal/workload"
)

// These tests pin the shared-result contract: a resolved cell's master is
// handed out as it is, so it must own its memory (runCell copies what it
// takes from the caller) and nothing may write into it once built.

// TestCacheOwnsItsCells resolves a share-taking cell, then mutates the
// caller's share vector and benchmark list: an equal cell built from fresh
// slices must still hit a master carrying the original values, in the run
// and in its encoding.
func TestCacheOwnsItsCells(t *testing.T) {
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
	shares := []float64{0.1, 0.2, 0.3, 0.4}
	fresh := func() GridCell {
		m := mix
		m.Benchmarks = slices.Clone(mix.Benchmarks)
		return GridCell{Mix: m, Scheme: "start-time-fair", Shares: slices.Clone(shares)}
	}
	caller := []GridCell{fresh()}
	if _, err := r.RunCells(context.Background(), caller, nil); err != nil {
		t.Fatal(err)
	}
	caller[0].Shares[0] = 99
	caller[0].Mix.Benchmarks[0] = "corrupted"

	runs, err := r.RunCells(context.Background(), []GridCell{fresh()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCache(t, "after the second resolve", cfg.Obs, 1, 1, 0, 0)
	hit := runs[0]
	if !slices.Equal(hit.Shares, shares) || !slices.Equal(hit.Mix.Benchmarks, mix.Benchmarks) {
		t.Errorf("hit carries shares %v and benchmarks %v, want %v and %v", hit.Shares, hit.Mix.Benchmarks, shares, mix.Benchmarks)
	}
	enc, err := r.EncodeCell(fresh(), hit)
	if err != nil {
		t.Fatal(err)
	}
	var decoded MixRun
	if err := json.Unmarshal(enc, &decoded); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(decoded.Shares, shares) || !slices.Equal(decoded.Mix.Benchmarks, mix.Benchmarks) {
		t.Errorf("encoding carries shares %v and benchmarks %v, want %v and %v", decoded.Shares, decoded.Mix.Benchmarks, shares, mix.Benchmarks)
	}
}

// TestHitAllocs bounds what an in-process hit allocates: a resident cell is
// handed out as it is, not copied (a copy costs 8 allocations).
func TestHitAllocs(t *testing.T) {
	r, err := NewRunner(memoTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunMix(mix, "equal"); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { r.RunMix(mix, "equal") }); got > 2 {
		t.Errorf("%v allocations per RunMix hit, ceiling 2", got)
	}
	mixes, schemes := []workload.Mix{mix}, []string{"equal"}
	if got := testing.AllocsPerRun(100, func() { r.RunGrid(context.Background(), mixes, schemes) }); got > 6 {
		t.Errorf("%v allocations per one-cell RunGrid hit, ceiling 6", got)
	}
}

// TestSharedMastersRace resolves one cell under two labels — hetero-5 and its
// alias, the motivation mix — from many goroutines through RunMix, RunGrid
// and ResidentJSON at once. Every caller must see its own labels on the
// shared measurement; under -race, any write into the shared master (a
// relabel done in place, say) is reported.
func TestSharedMastersRace(t *testing.T) {
	r, err := NewRunner(memoTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	hetero5, err := workload.MixByName("hetero-5")
	if err != nil {
		t.Fatal(err)
	}
	motivation := workload.MotivationMix()
	master, err := r.RunMix(hetero5, "equal")
	if err != nil {
		t.Fatal(err)
	}
	mixes := []workload.Mix{hetero5, motivation}
	wantJSON := make([][]byte, len(mixes))
	for i, mix := range mixes {
		if wantJSON[i], err = encodeRun(relabel(master, mix)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(run *MixRun, mix workload.Mix) error {
		if run.Mix.Name != mix.Name || run.Mix.PaperRSD != mix.PaperRSD {
			return errors.New("labels " + run.Mix.Name + ", want " + mix.Name)
		}
		if !reflect.DeepEqual(run.Values, master.Values) || !reflect.DeepEqual(run.Result, master.Result) {
			return errors.New(mix.Name + ": measurement differs from the master's")
		}
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(mixes)
			mix := mixes[i]
			for n := 0; n < 50; n++ {
				run, err := r.RunMix(mix, "equal")
				if err == nil {
					err = check(run, mix)
				}
				var runs []*MixRun
				if err == nil {
					runs, err = r.RunGrid(context.Background(), []workload.Mix{mix}, []string{"equal"})
				}
				if err == nil {
					err = check(runs[0], mix)
				}
				var enc []byte
				if err == nil {
					enc, err = r.ResidentJSON(GridCell{Mix: mix, Scheme: "equal"})
				}
				if err == nil && !bytes.Equal(enc, wantJSON[i]) {
					err = errors.New(mix.Name + ": ResidentJSON differs from the master's encoding relabeled")
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTraceCellReadsNoTier: TraceCell simulates a cell even when it is
// resident in memory and stored on disk, so its tracer sees the accesses; the
// run equals RunMix's, and it moves no hit, miss, coalesced or checkpoint-hit
// counter (only warm_forks, for the fork it ran on) and writes nothing to the
// checkpoint directory.
func TestTraceCellReadsNoTier(t *testing.T) {
	dir := t.TempDir()
	r, col := storeRunner(t, dir)
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.RunMix(mix, "equal")
	if err != nil {
		t.Fatal(err)
	}
	before, files := col.Snapshot().Cache, dirFiles(t, dir)
	traced := 0
	got, err := r.TraceCell(GridCell{Mix: mix, Scheme: "equal"}, func(int64, int, uint64, bool) { traced++ })
	if err != nil {
		t.Fatal(err)
	}
	if traced == 0 {
		t.Error("TraceCell of a resident, stored cell traced no access")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TraceCell's run differs from RunMix's:\n got %+v\nwant %+v", got, want)
	}
	after := col.Snapshot().Cache
	before.WarmForks++
	if after != before {
		t.Errorf("cell_cache after TraceCell = %+v, want %+v", after, before)
	}
	if now := dirFiles(t, dir); !maps.Equal(now, files) {
		t.Errorf("TraceCell wrote to the checkpoint directory: %d files, had %d", len(now), len(files))
	}
}

// dirFiles maps every file under dir to its modification time and contents,
// so a file rewritten with the same bytes shows too.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = info.ModTime().String() + "\n" + string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
