package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: bwpart/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRunIdle/naive-8         	       1	   8548566 ns/op	  23399069 cycles/s	  846472 B/op	   26695 allocs/op
BenchmarkRunIdle/naive-8         	       1	   8600000 ns/op	  23000000 cycles/s	  846472 B/op	   26695 allocs/op
BenchmarkRunIdle/skip-8          	       1	   2580496 ns/op	  77530408 cycles/s	  846472 B/op	   26695 allocs/op
BenchmarkRunSaturated/naive-8    	       1	  56430135 ns/op	   3544287 cycles/s	29318000 B/op	  917612 allocs/op
BenchmarkRunSaturated/skip-8     	       1	  58996341 ns/op	   3390104 cycles/s	29318304 B/op	  917613 allocs/op
BenchmarkRunMixed/naive-8        	       1	  30000000 ns/op	   6666666 cycles/s	       0 B/op	       0 allocs/op
BenchmarkRunMixed/skip-8         	       1	  20000000 ns/op	  10000000 cycles/s	       0 B/op	       0 allocs/op
BenchmarkQueueSchedule-8         	     100	      4000 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	bwpart/internal/sim	0.478s
`

func TestParseDerivesSpeedups(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Benchmarks); got != 7 {
		t.Fatalf("want 7 benchmarks, got %d", got)
	}
	idle := rep.Derived["idle_speedup"]
	if want := 8548566.0 / 2580496.0; idle < want-1e-9 || idle > want+1e-9 {
		t.Errorf("idle_speedup = %v, want %v (from min ns/op)", idle, want)
	}
	if _, ok := rep.Derived["saturated_speedup"]; !ok {
		t.Error("missing saturated_speedup")
	}
	if got := rep.Derived["mixed_speedup"]; got != 1.5 {
		t.Errorf("mixed_speedup = %v, want 1.5", got)
	}
	if got := rep.Derived["event_queue_allocs_per_op"]; got != 0 {
		t.Errorf("event_queue_allocs_per_op = %v, want 0", got)
	}
	for _, b := range rep.Benchmarks {
		if b.Name == "BenchmarkRunIdle/naive" {
			if len(b.Runs) != 2 {
				t.Errorf("naive runs = %d, want 2 (grouped by -count)", len(b.Runs))
			}
			if b.MinNsOp != 8548566 {
				t.Errorf("naive MinNsOp = %v, want the smaller run", b.MinNsOp)
			}
		}
	}
}

const figureSample = `goos: linux
pkg: bwpart/internal/exper
BenchmarkFigureSuite/cold-2        	       1	13401611357 ns/op	113238280 B/op	   78424 allocs/op
BenchmarkFigureSuite/memoized-2    	       1	4614120133 ns/op	       106.0 requested_cells	       100.0 unique_cells	29785544 B/op	   30540 allocs/op
BenchmarkFigureSuite/memoized-2    	       1	4700000000 ns/op	       106.0 requested_cells	       100.0 unique_cells	29785544 B/op	   30540 allocs/op
PASS
`

func TestParseDerivesFigureDedup(t *testing.T) {
	rep, err := parse(strings.NewReader(figureSample))
	if err != nil {
		t.Fatal(err)
	}
	dedup := rep.Derived["figures_dedup_speedup"]
	if want := 13401611357.0 / 4614120133.0; dedup < want-1e-9 || dedup > want+1e-9 {
		t.Errorf("figures_dedup_speedup = %v, want %v", dedup, want)
	}
	if got := rep.Derived["figures_unique_cells"]; got != 100 {
		t.Errorf("figures_unique_cells = %v, want 100", got)
	}
	if got := rep.Derived["figures_requested_cells"]; got != 106 {
		t.Errorf("figures_requested_cells = %v, want 106", got)
	}
	for _, b := range rep.Benchmarks {
		if b.Name != "BenchmarkFigureSuite/memoized" {
			continue
		}
		if got := b.Runs[0].Metrics["unique_cells"]; got != 100 {
			t.Errorf("run metric unique_cells = %v, want 100", got)
		}
	}
}

const serveSample = `goos: linux
pkg: bwpart/internal/serve
BenchmarkServe/cold-2         	       1	  36217909 ns/op	 1044536 B/op	     875 allocs/op
BenchmarkServe/warm-2         	       1	    281557 ns/op	      3567 req/s	   16160 B/op	     200 allocs/op
BenchmarkServe/warm-2         	       1	    192710 ns/op	      5226 req/s	   16192 B/op	     200 allocs/op
BenchmarkServe/warm_disk-2    	       1	    259219 ns/op	      3885 req/s	   14672 B/op	     170 allocs/op
BenchmarkServe/concurrent-2   	       1	    362692 ns/op	      2768 req/s	   18656 B/op	     212 allocs/op
BenchmarkServe/handler_hit-2  	       1	     21000 ns/op	    2048 B/op	      23 allocs/op
BenchmarkServe/handler_hit-2  	       1	     19000 ns/op	    1984 B/op	      22 allocs/op
PASS
`

func TestParseDerivesServeFigures(t *testing.T) {
	rep, err := parse(strings.NewReader(serveSample))
	if err != nil {
		t.Fatal(err)
	}
	speedup := rep.Derived["serve_warm_speedup"]
	if want := 36217909.0 / 192710.0; speedup < want-1e-9 || speedup > want+1e-9 {
		t.Errorf("serve_warm_speedup = %v, want %v (best warm run)", speedup, want)
	}
	if got := rep.Derived["serve_warm_reqs_per_sec"]; got != 5226 {
		t.Errorf("serve_warm_reqs_per_sec = %v, want 5226 (best run)", got)
	}
	if got := rep.Derived["serve_warm_disk_reqs_per_sec"]; got != 3885 {
		t.Errorf("serve_warm_disk_reqs_per_sec = %v, want 3885", got)
	}
	if got := rep.Derived["serve_concurrent_reqs_per_sec"]; got != 2768 {
		t.Errorf("serve_concurrent_reqs_per_sec = %v, want 2768", got)
	}
	if got := rep.Derived["serve_hit_allocs_per_op"]; got != 22 {
		t.Errorf("serve_hit_allocs_per_op = %v, want 22 (best run)", got)
	}
}

const gridHitSample = `goos: linux
pkg: bwpart/internal/exper
BenchmarkRunGridHitWide-2   	       1	    300000 ns/op	    9000 B/op	      85 allocs/op
BenchmarkRunGridHitWide-2   	       1	    280000 ns/op	    8900 B/op	      84 allocs/op
PASS
`

// TestParseDerivesGridHitAllocs: the wide RunGrid hit's allocs/op is derived
// from its best run and, like every allocation count, fails the gate on one
// more allocation whatever the tolerance.
func TestParseDerivesGridHitAllocs(t *testing.T) {
	rep, err := parse(strings.NewReader(gridHitSample))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Derived["rungrid_hit_allocs_per_op"]; got != 84 {
		t.Fatalf("rungrid_hit_allocs_per_op = %v, want 84 (best run)", got)
	}
	grown := &Report{Derived: map[string]float64{"rungrid_hit_allocs_per_op": 85}}
	if regs, _ := compare(rep, grown, 50); len(regs) != 1 || regs[0].Name != "derived/rungrid_hit_allocs_per_op" {
		t.Errorf("regressions = %+v, want exactly derived/rungrid_hit_allocs_per_op", regs)
	}
}

const memctrlSample = `goos: linux
pkg: bwpart/internal/memctrl
BenchmarkPick/fcfs-2             	 2000000	        16.20 ns/op	       0 B/op	       0 allocs/op
BenchmarkPick/fcfs-2             	 2000000	        17.90 ns/op	       0 B/op	       0 allocs/op
BenchmarkTickFCFS-2              	 2000000	        24.40 ns/op	       0 B/op	       0 allocs/op
BenchmarkTickFCFS-2              	 2000000	        25.10 ns/op	      16 B/op	       1 allocs/op
BenchmarkControllerSaturated-2   	 2000000	        47.00 ns/op	      16 B/op	       1 allocs/op
BenchmarkControllerSaturated-2   	 2000000	        44.00 ns/op	      32 B/op	       2 allocs/op
PASS
`

func TestParseDerivesMemctrlAllocs(t *testing.T) {
	rep, err := parse(strings.NewReader(memctrlSample))
	if err != nil {
		t.Fatal(err)
	}
	// TickFCFS allocated in one run of two (a stray runtime allocation: its
	// best run counts, 0); ControllerSaturated in both (its loop allocates: 1).
	if got, ok := rep.Derived["memctrl_allocs_per_op"]; !ok || got != 1 {
		t.Errorf("memctrl_allocs_per_op = %v (present %v), want 1: the worst benchmark's best run", got, ok)
	}
	if _, ok := rep.Derived["event_queue_allocs_per_op"]; ok {
		t.Error("event_queue_allocs_per_op derived without its benchmark")
	}
	clean, err := parse(strings.NewReader(strings.Replace(memctrlSample, "2 allocs/op", "0 allocs/op", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := clean.Derived["memctrl_allocs_per_op"]; !ok || got != 0 {
		t.Errorf("memctrl_allocs_per_op = %v (present %v), want a recorded 0", got, ok)
	}
}

// TestCompareIgnoresHostBoundFigures: absolute ns/op rows and _per_sec rates
// swing 2-3x with the host's load, so they are recorded but never gated.
func TestCompareIgnoresHostBoundFigures(t *testing.T) {
	old := &Report{
		Benchmarks: []Bench{{Name: "BenchmarkA", MinNsOp: 100}},
		Derived:    map[string]float64{"serve_warm_reqs_per_sec": 5000},
	}
	slower := &Report{
		Benchmarks: []Bench{{Name: "BenchmarkA", MinNsOp: 900}},
		Derived:    map[string]float64{"serve_warm_reqs_per_sec": 500},
	}
	if regs, compared := compare(old, slower, 5); len(regs) != 0 || compared != 0 {
		t.Fatalf("host-bound figures gated: regs=%+v compared=%d", regs, compared)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("expected error on input with no benchmark lines")
	}
}

func TestCompareGatesDerivedSpeedups(t *testing.T) {
	old := &Report{Derived: map[string]float64{
		"saturated_speedup": 2.5,
		"idle_speedup":      3.6,
	}}
	cur := &Report{Derived: map[string]float64{
		"saturated_speedup": 1.0, // -60%: regression (smaller is worse)
		"idle_speedup":      3.5, // ~-3%: inside a 5% tolerance
	}}
	regs, compared := compare(old, cur, 5)
	if compared != 2 {
		t.Fatalf("compared = %d, want 2 derived figures", compared)
	}
	if len(regs) != 1 || regs[0].Name != "derived/saturated_speedup" {
		t.Fatalf("regressions = %+v, want exactly derived/saturated_speedup", regs)
	}
	// Growing speedups must pass at any tolerance.
	better := &Report{Derived: map[string]float64{
		"saturated_speedup": 9.9,
		"idle_speedup":      9.9,
	}}
	if regs, _ := compare(old, better, 0); len(regs) != 0 {
		t.Errorf("improved speedups flagged: %+v", regs)
	}
}

func TestCompareGatesDerivedCounters(t *testing.T) {
	old := &Report{Derived: map[string]float64{"event_queue_allocs_per_op": 0}}
	grown := &Report{Derived: map[string]float64{"event_queue_allocs_per_op": 2}}
	regs, compared := compare(old, grown, 50)
	if compared != 1 || len(regs) != 1 {
		t.Fatalf("zero-baseline counter growth must fail at any tolerance: regs=%+v compared=%d",
			regs, compared)
	}
	same := &Report{Derived: map[string]float64{"event_queue_allocs_per_op": 0}}
	if regs, _ := compare(old, same, 0); len(regs) != 0 {
		t.Errorf("unchanged zero counter flagged: %+v", regs)
	}
	// A non-zero allocation count fails on one more allocation too; other
	// counters keep the tolerance.
	old = &Report{Derived: map[string]float64{"serve_hit_allocs_per_op": 22, "figures_unique_cells": 100}}
	cur := &Report{Derived: map[string]float64{"serve_hit_allocs_per_op": 23, "figures_unique_cells": 101}}
	if regs, _ := compare(old, cur, 50); len(regs) != 1 || regs[0].Name != "derived/serve_hit_allocs_per_op" {
		t.Errorf("regressions = %+v, want exactly derived/serve_hit_allocs_per_op", regs)
	}
}

const snapshotSample = `goos: linux
pkg: bwpart/internal/sim
BenchmarkSnapshot-2   	    2000	    180000 ns/op	  190900 B/op	      78 allocs/op
BenchmarkSnapshot-2   	    2000	    170000 ns/op	  190824 B/op	      77 allocs/op
PASS
`

// TestSnapshotBytesGateOnAnyGrowth: a checkpoint's B/op is derived from the
// best run and, like an allocation count, fails the gate on one more byte
// whatever the tolerance, while shrinking passes.
func TestSnapshotBytesGateOnAnyGrowth(t *testing.T) {
	rep, err := parse(strings.NewReader(snapshotSample))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Derived["snapshot_bytes_per_op"]; got != 190824 {
		t.Fatalf("snapshot_bytes_per_op = %v, want 190824 (best run)", got)
	}
	old := &Report{Derived: map[string]float64{"snapshot_bytes_per_op": 190824}}
	grown := &Report{Derived: map[string]float64{"snapshot_bytes_per_op": 190825}}
	if regs, compared := compare(old, grown, 50); compared != 1 || len(regs) != 1 ||
		regs[0].Name != "derived/snapshot_bytes_per_op" {
		t.Errorf("one more checkpoint byte must fail at any tolerance: regs=%+v compared=%d", regs, compared)
	}
	shrunk := &Report{Derived: map[string]float64{"snapshot_bytes_per_op": 100000}}
	if regs, _ := compare(old, shrunk, 0); len(regs) != 0 {
		t.Errorf("smaller checkpoint flagged: %+v", regs)
	}
}

// TestCompareRecordsServeWarmSpeedup: the warm/cold serve ratio is host time
// and never fails the gate, however far it falls.
func TestCompareRecordsServeWarmSpeedup(t *testing.T) {
	old := &Report{Derived: map[string]float64{"serve_warm_speedup": 387}}
	cur := &Report{Derived: map[string]float64{"serve_warm_speedup": 10}}
	if regs, compared := compare(old, cur, 50); len(regs) != 0 || compared != 0 {
		t.Errorf("serve_warm_speedup gated: regs=%+v compared=%d", regs, compared)
	}
}

func TestCompareSkipsOneSidedDerived(t *testing.T) {
	old := &Report{Derived: map[string]float64{"old_only": 1}}
	cur := &Report{Derived: map[string]float64{"new_only": 1}}
	if regs, compared := compare(old, cur, 5); len(regs) != 0 || compared != 0 {
		t.Fatalf("one-sided derived figures must be skipped: regs=%+v compared=%d", regs, compared)
	}
}

func TestCurrentMetaPopulated(t *testing.T) {
	m := currentMeta()
	if m.GoVersion == "" || m.GOOS == "" || m.GOARCH == "" || m.NumCPU < 1 || m.GOMAXPROCS < 1 {
		t.Errorf("incomplete meta: %+v", m)
	}
}
