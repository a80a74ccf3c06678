// Command sweep runs a parameter grid — workload mixes x schemes x
// bandwidth scales — and emits one CSV row per run with the four system
// objectives, for plotting or regression tracking. One runner resolves every
// scale, each a bwpart.CellSystem of its cells; each scale's grid is fanned out
// across the experiment engine's worker pool, and rows are emitted in
// deterministic grid order regardless of scheduling. The long-lived
// HTTP form of the same engine is cmd/sweepd.
//
// Usage:
//
//	sweep -mixes hetero-1,hetero-5 -schemes equal,square-root -scales 1,2 > results.csv
//	sweep -mixes "hetero-1, hetero-2" -schemes equal,square-root \
//	      -progress -stats-json stats.json > results.csv
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bwpart"
	"bwpart/internal/pprofutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	mixesFlag := flag.String("mixes", "hetero-1,hetero-2,hetero-3,hetero-4,hetero-5,hetero-6,hetero-7",
		"comma-separated mix names")
	schemesFlag := flag.String("schemes", "no-partitioning,equal,proportional,square-root,two-thirds-power,priority-apc,priority-api",
		"comma-separated policy names: no-partitioning, a partitioning scheme, a heuristic scheduler (stfm, parbs, atlas, tcm) or fr-fcfs")
	scalesFlag := flag.String("scales", "1", "comma-separated bandwidth scale factors")
	quick := flag.Bool("quick", true, "use reduced simulation windows")
	seed := flag.Int64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 0, "max concurrent simulations (0 = $BWPART_PARALLELISM or GOMAXPROCS)")
	progress := flag.Bool("progress", false, "render a progress ticker on stderr")
	statsJSON := flag.String("stats-json", "", "write run statistics (job counters, stage timings, queue depths) to this JSON file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	tracePath := flag.String("trace", "", "write an execution trace (go tool trace) to this file")
	checkpointDir := flag.String("checkpoint-dir", "",
		"persist finished sweep cells to this directory and resume an interrupted sweep from them")
	cacheMB := flag.Int("cache-mb", 0,
		"bound the in-memory result cache to this many MiB, evicting LRU cells (0 = unbounded)")
	flag.Parse()

	// Ctrl-C / SIGTERM cancel in-flight work: the sweep stops between
	// simulations and still flushes CSV, stats, and profiles. A second
	// signal kills the process immediately (stop restores default delivery).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	prof, err := pprofutil.Start(*cpuProfile, *memProfile, *tracePath)
	if err != nil {
		log.Fatal(err)
	}
	// log.Fatal skips deferred calls, so every fatal path below goes through
	// these wrappers to flush the profiles first.
	fatal := func(v ...any) { prof.Stop(); log.Fatal(v...) }
	fatalf := func(format string, args ...any) { prof.Stop(); log.Fatalf(format, args...) }

	scales, err := parseFloats(*scalesFlag)
	if err != nil {
		fatal(err)
	}
	if int64(*cacheMB) > math.MaxInt64>>20 {
		fatalf("-cache-mb %d: the result-cache budget overflows (at most %d MiB)", *cacheMB, int64(math.MaxInt64>>20))
	}
	mixNames := splitList(*mixesFlag)
	schemes := splitList(*schemesFlag)
	if len(mixNames) == 0 || len(schemes) == 0 {
		fatal("need at least one mix and one scheme")
	}
	mixes := make([]bwpart.Mix, len(mixNames))
	for i, name := range mixNames {
		mixes[i], err = bwpart.MixByName(name)
		if err != nil {
			fatal(err)
		}
	}

	var store *bwpart.CheckpointStore
	if *checkpointDir != "" {
		store, err = bwpart.NewCheckpointStore(*checkpointDir)
		if err != nil {
			fatal(err)
		}
	}

	col := bwpart.NewRunObserver()
	if *progress {
		ticker := col.StartTicker(os.Stderr, 500*time.Millisecond)
		defer ticker.Stop()
	}
	cfg := bwpart.DefaultExperiments()
	if *quick {
		cfg = bwpart.QuickExperiments()
	}
	cfg.Seed = *seed
	cfg.Parallelism = *parallel
	cfg.Obs = col
	cfg.Checkpoint = store
	cfg.CacheBytes = int64(*cacheMB) << 20
	runner, err := bwpart.NewRunner(cfg)
	if err != nil {
		fatal(err)
	}

	w := csv.NewWriter(os.Stdout)
	header := []string{"scale", "gbs", "mix", "scheme",
		"hsp", "min_fairness", "wsp", "ipc_sum", "bus_util", "total_apc"}
	if err := w.Write(header); err != nil {
		fatal(err)
	}

	for _, scale := range scales {
		system := bwpart.CellSystem{Scale: scale}
		scaled, err := runner.SystemConfig(system)
		if err != nil {
			fatal(err)
		}
		gbs := scaled.Sim.DRAM.PeakBandwidthGBs()
		runs, err := runner.RunCells(ctx, system.Grid(mixes, schemes), nil)
		if err != nil {
			// Interrupted or failed mid-sweep: flush what's already written
			// (completed scales) and the statistics before exiting.
			w.Flush()
			if serr := col.Snapshot().WriteFile(*statsJSON); serr != nil {
				log.Print(serr)
			}
			fatal(err)
		}
		for _, run := range runs {
			row := []string{
				fmt.Sprintf("%g", scale),
				fmt.Sprintf("%.1f", gbs),
				run.Mix.Name,
				run.Scheme,
				fmt.Sprintf("%.4f", run.Values[bwpart.ObjectiveHsp]),
				fmt.Sprintf("%.4f", run.Values[bwpart.ObjectiveMinFairness]),
				fmt.Sprintf("%.4f", run.Values[bwpart.ObjectiveWsp]),
				fmt.Sprintf("%.4f", run.Values[bwpart.ObjectiveIPCSum]),
				fmt.Sprintf("%.3f", run.Result.BusUtilization),
				fmt.Sprintf("%.6f", run.Result.TotalAPC),
			}
			if err := w.Write(row); err != nil {
				fatal(err)
			}
		}
		w.Flush()
	}
	// A deferred Flush would silently drop write errors (e.g. a full pipe
	// truncating output while still exiting 0): flush and check explicitly.
	w.Flush()
	if err := w.Error(); err != nil {
		fatalf("writing CSV: %v", err)
	}
	if err := col.Snapshot().WriteFile(*statsJSON); err != nil {
		fatal(err)
	}
	if err := prof.Stop(); err != nil {
		log.Fatal(err)
	}
}

// splitList splits a comma-separated flag value, trimming whitespace and
// dropping empty entries, so "a, b," parses as ["a", "b"].
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	parts := splitList(s)
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad scale %q: %w", p, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("scale %v must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}
