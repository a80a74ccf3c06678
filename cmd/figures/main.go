// Command figures regenerates the paper's evaluation artifacts — Table III,
// Table IV, Figures 1-4 — and the extension studies: one bwpart.Study each,
// rendered in report order.
//
// Usage:
//
//	figures [-exp all|<study>] [-quick] [-seed N] [-o report.txt]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bwpart"
	"bwpart/internal/pprofutil"
)

// Flags live on the default command line so the count of flags stays in one
// place; run parses them from its arguments.
var (
	exp           = flag.String("exp", "all", "experiment: all, "+studyNames())
	quick         = flag.Bool("quick", false, "use reduced simulation windows")
	seed          = flag.Int64("seed", 1, "simulation seed")
	outPath       = flag.String("o", "", "also write the report to this file")
	parallel      = flag.Int("parallel", 0, "max concurrent simulations (0 = $BWPART_PARALLELISM or GOMAXPROCS)")
	progress      = flag.Bool("progress", false, "render a progress ticker on stderr")
	statsJSON     = flag.String("stats-json", "", "write run statistics (job counters, stage timings, queue depths) to this JSON file")
	cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile    = flag.String("memprofile", "", "write a heap profile to this file at exit")
	tracePath     = flag.String("trace", "", "write an execution trace (go tool trace) to this file")
	checkpointDir = flag.String("checkpoint-dir", "",
		"persist finished sweep cells to this directory and resume interrupted grid experiments from them")
)

// studyNames lists the registry's study names, for the help text and the
// unknown-experiment message.
func studyNames() string {
	var names []string
	for _, s := range bwpart.Studies() {
		names = append(names, s.Name)
	}
	return strings.Join(names, ", ")
}

// usageError is a bad command line: main reports it without the log prefix
// and exits 2.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	if _, err := run(os.Args[1:], os.Stdout); err != nil {
		var usage usageError
		if errors.As(err, &usage) {
			fmt.Fprintln(os.Stderr, usage)
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run parses args, runs the selected studies and writes the report to
// stdout (and to -o). It returns each finished study's tables by name. Every
// exit path flushes the statistics file and the profiles before returning.
func run(args []string, stdout io.Writer) (tables map[string][]*bwpart.Table, err error) {
	if err := flag.CommandLine.Parse(args); err != nil {
		return nil, err
	}
	var studies []bwpart.Study
	for _, s := range bwpart.Studies() {
		if *exp == "all" || *exp == s.Name {
			studies = append(studies, s)
		}
	}
	if len(studies) == 0 {
		return nil, usageError(fmt.Sprintf("unknown experiment %q; choose from all, %s", *exp, studyNames()))
	}

	prof, err := pprofutil.Start(*cpuProfile, *memProfile, *tracePath)
	if err != nil {
		return nil, err
	}
	defer func() {
		if stopErr := prof.Stop(); stopErr != nil {
			log.Print(stopErr)
		}
	}()

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
	}

	// Ctrl-C / SIGTERM cancel the experiment fan-outs between simulations;
	// the interrupted run still writes its report so far, the statistics,
	// and the profiles on the way out. A second signal kills immediately.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cfg := bwpart.DefaultExperiments()
	if *quick {
		cfg = bwpart.QuickExperiments()
	}
	cfg.Seed = *seed
	cfg.Parallelism = *parallel
	cfg.BaseContext = ctx
	if *checkpointDir != "" {
		cfg.Checkpoint, err = bwpart.NewCheckpointStore(*checkpointDir)
		if err != nil {
			return nil, err
		}
	}
	col := bwpart.NewRunObserver()
	cfg.Obs = col
	if *progress {
		ticker := col.StartTicker(os.Stderr, 500*time.Millisecond)
		defer ticker.Stop()
	}
	defer func() {
		if statsErr := col.Snapshot().WriteFile(*statsJSON); statsErr != nil && err == nil {
			err = statsErr
		}
	}()
	runner, err := bwpart.NewRunner(cfg)
	if err != nil {
		return nil, err
	}

	tables = make(map[string][]*bwpart.Table, len(studies))
	for _, s := range studies {
		start := time.Now()
		fmt.Fprintf(out, "### %s\n", s.Name)
		ts, err := s.Run(runner)
		if err != nil {
			return tables, fmt.Errorf("%s: %w", s.Name, err)
		}
		for i, t := range ts {
			if i > 0 {
				fmt.Fprintln(out)
			}
			fmt.Fprint(out, t)
		}
		tables[s.Name] = ts
		fmt.Fprintf(out, "(%s in %s)\n\n", s.Name, time.Since(start).Round(time.Millisecond))
	}
	return tables, nil
}
