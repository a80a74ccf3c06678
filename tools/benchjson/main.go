// Command benchjson converts `go test -bench` text output into a machine
// readable JSON report. It reads benchmark lines from stdin (or a file via
// -i), groups repeated -count runs per benchmark, and derives the kernel
// speedup figures the performance harness tracks:
//
//	go test -run '^$' -bench . -benchmem -benchtime 1x -count 3 ./... > bench.out
//	benchjson -i bench.out -o BENCH_kernel.json
//
// Speedups are computed from each benchmark's best (minimum) ns/op across
// runs, the standard way to suppress scheduling noise in short benchmarks.
//
// With -against OLD.json the new results are additionally compared to a
// previously committed report: any host-stable derived figure that worsened
// by more than -tolerance percent (a speedup ratio shrinking, a cell counter
// growing) fails the run (non-zero exit); an allocation count or byte figure
// fails on any growth. Absolute ns/op rows, the _per_sec rates and serve_warm_speedup
// are recorded, not gated: on a shared host the same
// binary reads them 2-3x apart within a minute, and bench/ (interleaved
// pairs, medians) is the source of truth for them. This is the
// `make bench-check` performance gate:
//
//	benchjson -i bench.out -against BENCH_kernel.json -tolerance 50
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// runLine matches one benchmark result line, e.g.
//
//	BenchmarkRunIdle/naive-8  2  8548566 ns/op  23399069 cycles/s  846472 B/op  26695 allocs/op
var runLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// metricField matches one trailing "value unit" metric pair.
var metricField = regexp.MustCompile(`([\d.]+) ([^\s]+)`)

// Run is one benchmark execution (one line of -count output). Custom
// metrics a benchmark reports via b.ReportMetric (anything besides the
// standard B/op and allocs/op fields) land in Metrics keyed by unit.
type Run struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Bench aggregates every run of one benchmark name.
type Bench struct {
	Name    string  `json:"name"`
	Runs    []Run   `json:"runs"`
	MinNsOp float64 `json:"min_ns_per_op"`
}

// Meta records the environment a report was produced in, so committed
// baselines can be audited when a regression looks like a machine change
// rather than a code change. GOMAXPROCS is read from the benchjson process;
// the Makefile pins it in the environment shared with the `go test -bench`
// invocation, so the recorded value matches the benchmark run.
type Meta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentMeta() *Meta {
	return &Meta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Report is the JSON document: raw per-benchmark data plus the derived
// kernel acceptance figures and the run environment.
type Report struct {
	Meta       *Meta              `json:"meta,omitempty"`
	Benchmarks []Bench            `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	inPath := flag.String("i", "", "read benchmark output from this file (default stdin)")
	outPath := flag.String("o", "", "write the JSON report to this file (default stdout)")
	againstPath := flag.String("against", "", "compare against this baseline JSON report and fail on regressions")
	tolerance := flag.Float64("tolerance", 5, "allowed worsening of a gated derived figure in percent for -against")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	rep, err := parse(in)
	if err != nil {
		log.Fatal(err)
	}
	rep.Meta = currentMeta()
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	raw = append(raw, '\n')
	if *outPath == "" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(*outPath, raw, 0o644); err != nil {
		log.Fatal(err)
	}
	if *againstPath != "" {
		oldRaw, err := os.ReadFile(*againstPath)
		if err != nil {
			log.Fatal(err)
		}
		var old Report
		if err := json.Unmarshal(oldRaw, &old); err != nil {
			log.Fatalf("parse %s: %v", *againstPath, err)
		}
		regs, compared := compare(&old, rep, *tolerance)
		if compared == 0 {
			log.Fatalf("no gated figures in common with %s — wrong baseline?", *againstPath)
		}
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "REGRESSION %s: %.4g -> %.4g (%+.1f%%, tolerance %.1f%%)\n",
				r.Name, r.Old, r.New, r.Pct, *tolerance)
		}
		if len(regs) > 0 {
			log.Fatalf("%d of %d figures regressed beyond %.1f%%", len(regs), compared, *tolerance)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d figures within %.1f%% of %s\n",
			compared, *tolerance, *againstPath)
	}
}

// Regression describes one derived figure that worsened beyond the tolerance.
type Regression struct {
	Name     string
	Old, New float64
	Pct      float64 // relative worsening in percent (+Inf when a value collapses to zero)
}

// compare checks every gated figure present in both reports and returns
// those that worsened by more than tolerance percent, plus the number of
// figures compared. Gated are the derived figures a busy host cannot move:
// "_speedup" ratios (worse means smaller) and counters such as allocs/op,
// B/op or unique cells (worse means larger). Benchmark ns/op rows and "_per_sec"
// rates are not compared. Figures that exist on only one side are skipped:
// the gate guards known figures, it does not pin the set.
func compare(old, new *Report, tolerance float64) (regs []Regression, compared int) {
	keys := make([]string, 0, len(old.Derived))
	for key := range old.Derived {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		was := old.Derived[key]
		cur, ok := new.Derived[key]
		// serve_warm_speedup is one loopback request against a simulation:
		// host time, a record like the _per_sec rates. The hit's work is
		// gated exactly by serve_hit_allocs_per_op.
		if !ok || strings.HasSuffix(key, "_per_sec") || key == "serve_warm_speedup" {
			continue
		}
		var pct float64
		if strings.HasSuffix(key, "_speedup") {
			// Higher is better; a ratio needs a positive baseline.
			if was <= 0 {
				continue
			}
			if cur <= 0 {
				pct = math.Inf(1)
			} else {
				pct = (was/cur - 1) * 100
			}
		} else {
			// Lower is better. A zero baseline (e.g. an allocation-free hot
			// loop) admits no growth at any tolerance.
			switch {
			case was == 0 && cur > 0:
				pct = math.Inf(1)
			case was <= 0:
				pct = 0
			default:
				pct = (cur/was - 1) * 100
			}
		}
		compared++
		// Allocation counts and bytes are exact work, not host time: any
		// growth fails.
		exact := strings.HasSuffix(key, "_allocs_per_op") || strings.HasSuffix(key, "_bytes_per_op")
		if pct > tolerance || (exact && cur > was) {
			regs = append(regs, Regression{Name: "derived/" + key, Old: was, New: cur, Pct: pct})
		}
	}
	return regs, compared
}

// parse consumes go-test benchmark output and builds the report.
func parse(r io.Reader) (*Report, error) {
	byName := map[string]*Bench{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := runLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %w", sc.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		run := Run{Iterations: iters, NsPerOp: ns}
		for _, f := range metricField.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				continue
			}
			switch f[2] {
			case "B/op":
				run.BytesPerOp = ptr(v)
			case "allocs/op":
				run.AllocsPerOp = ptr(v)
			default:
				if run.Metrics == nil {
					run.Metrics = map[string]float64{}
				}
				run.Metrics[f[2]] = v
			}
		}
		b := byName[m[1]]
		if b == nil {
			b = &Bench{Name: m[1], MinNsOp: ns}
			byName[m[1]] = b
			order = append(order, m[1])
		}
		b.Runs = append(b.Runs, run)
		if ns < b.MinNsOp {
			b.MinNsOp = ns
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	rep := &Report{Derived: map[string]float64{}}
	for _, name := range order {
		rep.Benchmarks = append(rep.Benchmarks, *byName[name])
	}
	derive(rep, byName)
	return rep, nil
}

// derive computes the acceptance figures when the relevant benchmarks are
// present: naive/skip speedups for the System.Run mixes, the event-queue
// and memory-controller allocation counts, the sweep fork and figure-suite
// memoization speedups, the memoized figure pass's unique-vs-requested cell
// counts, the serving stack's warm-vs-cold speedup, sustained request rates
// and allocations per resident hit, and the bytes of one system checkpoint.
func derive(rep *Report, byName map[string]*Bench) {
	speedup := func(key, naive, skip string) {
		n, s := byName[naive], byName[skip]
		if n == nil || s == nil || s.MinNsOp == 0 {
			return
		}
		rep.Derived[key] = n.MinNsOp / s.MinNsOp
	}
	speedup("idle_speedup", "BenchmarkRunIdle/naive", "BenchmarkRunIdle/skip")
	speedup("saturated_speedup", "BenchmarkRunSaturated/naive", "BenchmarkRunSaturated/skip")
	speedup("mixed_speedup", "BenchmarkRunMixed/naive", "BenchmarkRunMixed/skip")
	speedup("sweep_fork_speedup", "BenchmarkSweep/cold", "BenchmarkSweep/forked")
	speedup("figures_dedup_speedup", "BenchmarkFigureSuite/cold", "BenchmarkFigureSuite/memoized")
	speedup("serve_warm_speedup", "BenchmarkServe/cold", "BenchmarkServe/warm")
	// Serving throughput: the best sustained request rate of each warm arm
	// (a record; compare does not gate _per_sec figures).
	for arm, key := range map[string]string{
		"BenchmarkServe/warm":       "serve_warm_reqs_per_sec",
		"BenchmarkServe/warm_disk":  "serve_warm_disk_reqs_per_sec",
		"BenchmarkServe/concurrent": "serve_concurrent_reqs_per_sec",
	} {
		if bench := byName[arm]; bench != nil {
			for _, r := range bench.Runs {
				if v := r.Metrics["req/s"]; v > rep.Derived[key] {
					rep.Derived[key] = v
				}
			}
		}
	}
	if m := byName["BenchmarkFigureSuite/memoized"]; m != nil {
		// The cell counts are deterministic across runs; take the worst so a
		// nondeterministic regression can only look worse, never hide.
		for _, r := range m.Runs {
			for unit, v := range r.Metrics {
				switch unit {
				case "unique_cells", "requested_cells":
					key := "figures_" + unit
					if v > rep.Derived[key] {
						rep.Derived[key] = v
					}
				}
			}
		}
	}
	// worst records under key the largest allocs/op (or B/op) among the
	// benchmarks match selects, if there are any. Each benchmark counts with
	// its smallest run: an allocation in the measured loop shows in every
	// run, a stray one from the runtime (one iteration at -benchtime 1x
	// counts every malloc in the process) does not.
	worst := func(key string, perOp func(Run) *float64, match func(name string) bool) {
		for name, b := range byName {
			if !match(name) {
				continue
			}
			least := math.Inf(1)
			for _, r := range b.Runs {
				if v := perOp(r); v != nil {
					least = min(least, *v)
				}
			}
			if !math.IsInf(least, 1) {
				rep.Derived[key] = max(rep.Derived[key], least)
			}
		}
	}
	allocs := func(r Run) *float64 { return r.AllocsPerOp }
	worst("event_queue_allocs_per_op", allocs, func(name string) bool { return name == "BenchmarkQueueSchedule" })
	// One resident /v1/mix hit through the handler (TestHitAllocCeiling is the
	// same call's tier-1 ceiling).
	worst("serve_hit_allocs_per_op", allocs, func(name string) bool { return name == "BenchmarkServe/handler_hit" })
	// One RunGrid hit per Table IV mix, more mixes than the warm-base
	// registry holds (TestHitAllocs is a one-cell hit's tier-1 ceiling).
	worst("rungrid_hit_allocs_per_op", allocs, func(name string) bool { return name == "BenchmarkRunGridHitWide" })
	// The controller suite (picks, ticks, the saturated controller) is
	// allocation-free in steady state; this is what its bench-check step gates.
	worst("memctrl_allocs_per_op", allocs, func(name string) bool {
		return name == "BenchmarkControllerSaturated" ||
			strings.HasPrefix(name, "BenchmarkPick/") || strings.HasPrefix(name, "BenchmarkTick")
	})
	// The bytes one checkpoint of a warmed system takes: what every prepared
	// base keeps resident (TestCheckpointBytesCeiling is its tier-1 ceiling).
	worst("snapshot_bytes_per_op", func(r Run) *float64 { return r.BytesPerOp },
		func(name string) bool { return name == "BenchmarkSnapshot" })
	// Deterministic key order is json.Marshal's default for maps; sort the
	// benchmark list too in case input interleaves packages.
	sort.SliceStable(rep.Benchmarks, func(i, j int) bool {
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})
}

func ptr(v float64) *float64 { return &v }
