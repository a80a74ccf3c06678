package exper

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bwpart/internal/metrics"
	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

var updateCompat = flag.Bool("update", false, "rewrite testdata/plain_cells.golden from the current code")

// TestPlainCellCompat pins, for a few cells without a share vector, the three
// things a checkpoint directory and a resident cache are keyed or filled by:
// the memory tier's cellKey, the checkpoint file name and encodeRun's bytes.
// The golden was first written by the build before cells could carry
// shares and re-recorded at the FingerprintVersion 3 bump (keys and file
// names only); directories stay valid only while these hold, so regenerate
// with -update only together with a FingerprintVersion bump.
func TestPlainCellCompat(t *testing.T) {
	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Quick())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, c := range []struct{ mix, scheme string }{
		{"hetero-1", "equal"}, {"hetero-5", NoPartitioning}, {"homo-2", "priority-api"},
	} {
		mix, err := workload.MixByName(c.mix)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := encodeRun(compatRun(mix, c.scheme))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\nkey %s\npath %s\njson %s", c.mix, c.scheme,
			cellKey(r.own.fp, GridCell{Mix: mix, Scheme: c.scheme}), filepath.Base(store.cellPath(r.own.fp, GridCell{Mix: mix, Scheme: c.scheme})), enc)
	}
	golden := filepath.Join("testdata", "plain_cells.golden")
	if *updateCompat {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("plain cells key, file or encode differently from %s:\n%s", golden, b.String())
	}
}

// compatRun is a fixed MixRun over every field a stored cell carries.
func compatRun(mix workload.Mix, scheme string) *MixRun {
	n := len(mix.Benchmarks)
	run := &MixRun{Mix: mix, Scheme: scheme, Values: map[metrics.Objective]float64{}}
	run.Result = sim.Result{WindowCycles: 400_000, BusUtilization: 0.625, TotalAPC: 1.0 / 3, EnergyPerBitPJ: 12.5}
	run.Result.Energy.ReadNJ = 7.25
	for i, name := range mix.Benchmarks {
		x := float64(i+1) / 7
		run.IPCAlone = append(run.IPCAlone, x)
		run.APCAlone = append(run.APCAlone, x/100)
		run.API = append(run.API, x/1000)
		run.Result.Apps = append(run.Result.Apps, sim.AppResult{Name: name, Instructions: int64(1000 * (i + 1)), Cycles: 400_000, IPC: x / 2})
	}
	for i, obj := range metrics.Objectives() {
		run.Values[obj] = float64(n+i) / 3
	}
	return run
}
