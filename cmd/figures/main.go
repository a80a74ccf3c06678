// Command figures regenerates the paper's evaluation artifacts: Table III,
// Table IV, Figures 1-4, the model-validation study, and the
// online-profiling study.
//
// Usage:
//
//	figures [-exp all|fig1..fig4|table3|table4|validate|online|...] [-quick] [-seed N] [-o report.txt]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"bwpart"
	"bwpart/internal/pprofutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	exp := flag.String("exp", "all", "experiment: all, fig1..fig4, table3, table4, validate, online, pagepolicy, enforcement, heuristics, sharedl2, energy, mechanism, interval, repeat")
	quick := flag.Bool("quick", false, "use reduced simulation windows")
	seed := flag.Int64("seed", 1, "simulation seed")
	outPath := flag.String("o", "", "also write the report to this file")
	parallel := flag.Int("parallel", 0, "max concurrent simulations (0 = $BWPART_PARALLELISM or GOMAXPROCS)")
	progress := flag.Bool("progress", false, "render a progress ticker on stderr")
	statsJSON := flag.String("stats-json", "", "write run statistics (job counters, stage timings, queue depths) to this JSON file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	tracePath := flag.String("trace", "", "write an execution trace (go tool trace) to this file")
	checkpointDir := flag.String("checkpoint-dir", "",
		"persist finished sweep cells to this directory and resume interrupted grid experiments from them")
	flag.Parse()

	prof, err := pprofutil.Start(*cpuProfile, *memProfile, *tracePath)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			log.Print(err)
		}
	}()
	// log.Fatal skips deferred calls, so every fatal path below goes through
	// this wrapper to flush the profiles first.
	fatalf := func(format string, args ...any) { prof.Stop(); log.Fatalf(format, args...) }

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
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
			fatalf("%v", err)
		}
	}
	col := bwpart.NewRunObserver()
	cfg.Obs = col
	if *progress {
		ticker := col.StartTicker(os.Stderr, 500*time.Millisecond)
		defer ticker.Stop()
	}
	writeStats := func() {
		if err := col.Snapshot().WriteFile(*statsJSON); err != nil {
			fatalf("%v", err)
		}
	}
	defer writeStats()
	runner, err := bwpart.NewRunner(cfg)
	if err != nil {
		fatalf("%v", err)
	}

	run := func(name string, fn func() error) {
		start := time.Now()
		fmt.Fprintf(out, "### %s\n", name)
		if err := fn(); err != nil {
			writeStats()
			fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(out, "(%s in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("table4") {
		ran = true
		run("table4", func() error {
			t4, err := bwpart.Table4()
			if err != nil {
				return err
			}
			fmt.Fprint(out, t4.Render())
			return nil
		})
	}
	if want("table3") {
		ran = true
		run("table3", func() error {
			t3, err := runner.Table3()
			if err != nil {
				return err
			}
			fmt.Fprint(out, t3.Render())
			fmt.Fprintf(out, "intensity class matches: %d/16\n", t3.ClassMatches())
			return nil
		})
	}
	if want("fig1") {
		ran = true
		run("fig1", func() error {
			f, err := runner.Figure1()
			if err != nil {
				return err
			}
			fmt.Fprint(out, f.Render())
			return nil
		})
	}
	if want("fig2") {
		ran = true
		run("fig2", func() error {
			f, err := runner.Figure2()
			if err != nil {
				return err
			}
			fmt.Fprint(out, f.Render())
			fmt.Fprint(out, f.RenderHeadline())
			return nil
		})
	}
	if want("fig3") {
		ran = true
		run("fig3", func() error {
			f, err := runner.Figure3()
			if err != nil {
				return err
			}
			fmt.Fprint(out, f.Render())
			return nil
		})
	}
	if want("fig4") {
		ran = true
		run("fig4", func() error {
			f, err := runner.Figure4()
			if err != nil {
				return err
			}
			fmt.Fprint(out, f.Render())
			apcs, err := runner.AloneAPCScaling([]string{"lbm", "leslie3d"}, []int{1, 2})
			if err != nil {
				return err
			}
			// Sorted so the report is byte-stable across runs (map order
			// would interleave the two lines randomly).
			names := make([]string, 0, len(apcs))
			for name := range apcs {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				series := apcs[name]
				fmt.Fprintf(out, "APKC_alone scaling %s: %.2f -> %.2f (paper: lbm +83.7%%, leslie3d +24.5%%)\n",
					name, series[0], series[1])
			}
			return nil
		})
	}
	if want("validate") {
		ran = true
		run("validate", func() error {
			v, err := runner.ValidateModel(bwpart.HeteroMixes()[:2])
			if err != nil {
				return err
			}
			fmt.Fprint(out, v.Render())
			return nil
		})
	}
	if want("online") {
		ran = true
		run("online", func() error {
			mix, err := bwpart.MixByName("hetero-5")
			if err != nil {
				return err
			}
			o, err := runner.RunOnline(mix, "square-root", 200_000, 4)
			if err != nil {
				return err
			}
			fmt.Fprint(out, o.Render())
			return nil
		})
	}
	if want("pagepolicy") {
		ran = true
		run("pagepolicy", func() error {
			p, err := runner.PagePolicyStudy(bwpart.HeteroMixes()[:3])
			if err != nil {
				return err
			}
			fmt.Fprint(out, p.Render())
			return nil
		})
	}
	if want("enforcement") {
		ran = true
		run("enforcement", func() error {
			e, err := runner.EnforcementStudy(bwpart.HeteroMixes()[:3])
			if err != nil {
				return err
			}
			fmt.Fprint(out, e.Render())
			return nil
		})
	}
	if want("heuristics") {
		ran = true
		run("heuristics", func() error {
			h, err := runner.RunHeuristics(bwpart.HeteroMixes())
			if err != nil {
				return err
			}
			fmt.Fprint(out, h.Render())
			return nil
		})
	}
	if want("sharedl2") {
		ran = true
		run("sharedl2", func() error {
			mix, err := bwpart.MixByName("homo-1")
			if err != nil {
				return err
			}
			s, err := runner.SharedL2Study(mix, [][]int{{2, 2, 2, 2}, {1, 1, 1, 5}, {5, 1, 1, 1}})
			if err != nil {
				return err
			}
			fmt.Fprint(out, s.Render())
			return nil
		})
	}
	if want("energy") {
		ran = true
		run("energy", func() error {
			mix, err := bwpart.MixByName("hetero-5")
			if err != nil {
				return err
			}
			e, err := runner.EnergyStudy(mix)
			if err != nil {
				return err
			}
			fmt.Fprint(out, e.Render())
			return nil
		})
	}
	if want("mechanism") {
		ran = true
		run("mechanism", func() error {
			m, err := runner.MechanismStudy(bwpart.HeteroMixes()[:3])
			if err != nil {
				return err
			}
			fmt.Fprint(out, m.Render())
			return nil
		})
	}
	if want("interval") {
		ran = true
		run("interval", func() error {
			mix, err := bwpart.MixByName("hetero-5")
			if err != nil {
				return err
			}
			iv, err := runner.IntervalStudy(mix, "square-root", []int64{60_000, 150_000, 300_000})
			if err != nil {
				return err
			}
			fmt.Fprint(out, iv.Render())
			return nil
		})
	}
	if want("repeat") {
		ran = true
		run("repeat", func() error {
			mix, err := bwpart.MixByName("hetero-5")
			if err != nil {
				return err
			}
			rr, err := runner.Repeatability(mix, "square-root", 5)
			if err != nil {
				return err
			}
			fmt.Fprint(out, rr.Render())
			return nil
		})
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose from all, fig1..fig4, table3, table4, validate, online, pagepolicy, enforcement, heuristics, sharedl2, energy, mechanism, interval, repeat\n", *exp)
		os.Exit(2)
	}
}
