package exper

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bwpart/internal/faultinject"
	"bwpart/internal/obs"
	"bwpart/internal/workload"
)

// faultyRunner builds a Quick runner over a fresh checkpoint store with the
// given injector, capturing degradation log lines.
func faultyRunner(t *testing.T, in *faultinject.Injector) (*Runner, *CheckpointStore, *obs.Collector, *[]string) {
	t.Helper()
	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	logs := &[]string{}
	store.SetLogf(func(format string, args ...any) {
		mu.Lock()
		*logs = append(*logs, format)
		mu.Unlock()
	})
	col := obs.NewCollector()
	cfg := Quick()
	cfg.Checkpoint = store
	cfg.Obs = col
	cfg.Faults = in
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, store, col, logs
}

// TestCheckpointWriteFaultDegradesNotFails: a failing Save must not fail the
// cell. The store demotes to in-memory-only mode — logged once, counted —
// and later cells skip the disk entirely.
func TestCheckpointWriteFaultDegradesNotFails(t *testing.T) {
	in := faultinject.New(1)
	in.Arm(faultinject.CheckpointWrite, faultinject.Rule{})
	r, store, col, logs := faultyRunner(t, in)
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}

	run, err := r.RunMix(mix, "equal")
	if err != nil || run == nil {
		t.Fatalf("cell failed on checkpoint write fault: %v", err)
	}
	if !store.Degraded() {
		t.Fatal("store not degraded after write fault")
	}
	f := col.Snapshot().Failures
	if f.CheckpointErrors == 0 || f.CheckpointDegraded != 1 {
		t.Fatalf("bad failure counters: %+v", f)
	}
	if len(*logs) != 1 {
		t.Fatalf("degradation logged %d times, want exactly once", len(*logs))
	}

	// Further cells run fine, write nothing, and log nothing more.
	if _, err := r.RunMix(mix, "square-root"); err != nil {
		t.Fatalf("post-degradation cell failed: %v", err)
	}
	files, _ := filepath.Glob(filepath.Join(store.Dir(), "*"))
	if len(files) != 0 {
		t.Errorf("degraded store left files on disk: %v", files)
	}
	if len(*logs) != 1 {
		t.Errorf("degradation re-logged: %v", *logs)
	}
}

// TestCheckpointReadFaultIsMissPlusDegrade: an injected read error behaves
// as a miss (the cell simulates) and degrades the store.
func TestCheckpointReadFaultIsMissPlusDegrade(t *testing.T) {
	in := faultinject.New(2)
	in.Arm(faultinject.CheckpointRead, faultinject.Rule{Limit: 1})
	r, store, col, _ := faultyRunner(t, in)
	mix, err := workload.MixByName("homo-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunMix(mix, "equal"); err != nil {
		t.Fatalf("cell failed on checkpoint read fault: %v", err)
	}
	if !store.Degraded() {
		t.Fatal("store not degraded after read fault")
	}
	if col.Snapshot().Failures.CheckpointErrors == 0 {
		t.Error("read fault not counted")
	}
}

// TestCheckpointRenameFaultCleansTemp: a rename failure degrades the store
// and removes the orphaned temp file.
func TestCheckpointRenameFaultCleansTemp(t *testing.T) {
	in := faultinject.New(3)
	in.Arm(faultinject.CheckpointRename, faultinject.Rule{})
	r, store, _, _ := faultyRunner(t, in)
	mix, err := workload.MixByName("homo-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunMix(mix, "equal"); err != nil {
		t.Fatalf("cell failed on rename fault: %v", err)
	}
	if !store.Degraded() {
		t.Fatal("store not degraded after rename fault")
	}
	tmps, _ := filepath.Glob(filepath.Join(store.Dir(), ".cell-*.tmp"))
	if len(tmps) != 0 {
		t.Errorf("rename fault leaked temp files: %v", tmps)
	}
}

// TestCellPanicFailsJobNotProcess: an injected cell panic surfaces as a
// stack-carrying job error from RunGrid; once the fault clears, the same
// runner serves the grid normally.
func TestCellPanicFailsJobNotProcess(t *testing.T) {
	in := faultinject.New(4)
	in.Arm(faultinject.CellPanic, faultinject.Rule{})
	r, _, _, _ := faultyRunner(t, in)
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RunGrid(context.Background(), []workload.Mix{mix}, []string{"equal"})
	if err == nil {
		t.Fatal("injected cell panic did not fail the grid")
	}
	if !strings.Contains(err.Error(), "injected cell panic") || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic error lacks provenance/stack: %v", err)
	}

	in.DisarmAll()
	runs, err := r.RunGrid(context.Background(), []workload.Mix{mix}, []string{"equal"})
	if err != nil || runs[0] == nil {
		t.Fatalf("grid did not recover after faults cleared: %v", err)
	}
}

// TestFigure4CellPanic: Figure 4's cells run on the fan-out, so a panicking
// cell must fail the figure with the lowest-index cell's error (here every
// cell panics, so the first mix's Equal run), not kill the process, and must
// leave no warm base pinned.
func TestFigure4CellPanic(t *testing.T) {
	in := faultinject.New(6)
	in.Arm(faultinject.CellPanic, faultinject.Rule{})
	cfg := memoTestConfig()
	cfg.Parallelism = 4
	cfg.Faults = in
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mixes := workload.HeteroMixes()[:2]
	first := mixes[0].Scale(2).Name + "/equal"
	check := func(err error) {
		t.Helper()
		if err == nil {
			t.Fatal("injected cell panic did not fail the figure")
		}
		if !errors.Is(err, ErrJobPanicked) || !strings.HasPrefix(err.Error(), "job 0:") ||
			!strings.Contains(err.Error(), "injected cell panic ("+first+")") {
			t.Fatalf("primary error is not the lowest-index cell %s panicking: %v", first, err)
		}
	}
	_, err = r.Figure4Scaled(mixes, []int{2})
	check(err)

	// The same grid as cells the test builds: every pin taken for the failed
	// group is released, and the grid resolves once the fault clears.
	scaled := []workload.Mix{mixes[0].Scale(2), mixes[1].Scale(2)}
	cells := Grid(scaled, []string{"equal", "square-root"})
	for i := range cells {
		cells[i].System = System{Scale: 2}
	}
	_, err = r.RunCells(context.Background(), cells, nil)
	check(err)
	if entries, pins := r.basesHeld(); entries != len(scaled) || pins != 0 {
		t.Fatalf("failed grid left %d entries with %d pins, want %d and 0", entries, pins, len(scaled))
	}
	in.DisarmAll()
	if _, err := r.Figure4Scaled(mixes, []int{2}); err != nil {
		t.Fatalf("figure did not recover after faults cleared: %v", err)
	}
}

// TestCellDelayInjection: an armed delay point fires on the cell path.
func TestCellDelayInjection(t *testing.T) {
	in := faultinject.New(5)
	in.Arm(faultinject.CellDelay, faultinject.Rule{Delay: 0})
	r, _, _, _ := faultyRunner(t, in)
	mix, err := workload.MixByName("homo-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunMix(mix, "equal"); err != nil {
		t.Fatal(err)
	}
	if in.Fired(faultinject.CellDelay) == 0 {
		t.Error("cell delay point never fired")
	}
}
