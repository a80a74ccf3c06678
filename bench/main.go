// Command bench is the repository's end-to-end benchmark: four fixed-size
// workloads driven only through the public functions of internal/exper,
// internal/serve and internal/sim, one process per workload. An untraced run
// (-trace 0) reports the end-to-end metrics; a traced run (-trace 1) records
// spans around every call into a layer, runs the per-layer probes, and
// reports the per-layer metrics. Every delivered cell is checked against
// golden.json. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the run's last stdout line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// meta makes a result diagnosable from the artefact alone.
type meta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Size       string `json:"size"`
	Rounds     int    `json:"rounds"`
	// PerRound holds, per metric, the raw per-round (or per-repetition)
	// values behind the reported median; Quartiles their Q1/median/Q3.
	PerRound  map[string][]float64  `json:"per_round"`
	Quartiles map[string][3]float64 `json:"quartiles"`
	// Spans aggregates the traced run's spans by name (traced runs only).
	Spans map[string]spanStat `json:"spans,omitempty"`
	Notes []string            `json:"notes,omitempty"`
}

// record is one line of a result file (-out): a run's summary plus meta.
type record struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	summary
	Meta meta `json:"meta"`
}

// nominalSeconds is the -seconds value the per-workload round counts are
// stated for (BENCHMARK.json's run_seconds). The work per round is fixed;
// -seconds only scales how many rounds a run measures, never below 3.
const nominalSeconds = 24

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, " | "))
	seed := fs.Int64("seed", 1, "permutes the order in which cells are requested")
	seconds := fs.Int("seconds", nominalSeconds, "measurement budget; scales the number of fixed-size rounds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	sizeName := fs.String("size", "full", "full | tiny (smoke-test scale)")
	out := fs.String("out", "", "append this run's result (summary + meta) to a JSON-lines file")
	spansOut := fs.String("spans", "", "traced runs: write the raw spans to this JSON file")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare A B")
	updateGolden := fs.Bool("update-golden", false, "re-record golden.json (run from the bench directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	gold, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// The sweep daemon's deployment shape on the reference host: two cores,
	// two engine workers.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if *updateGolden {
		return recordGolden(gold, root, stderr)
	}

	sz, err := sizeByName(*sizeName)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	h := newHarness(sz, *workload, *seed, *seconds, *trace != 0, gold, root)
	rec, err := h.run()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *spansOut != "" && h.traced {
		if err := writeSpans(*spansOut, h.spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := printResult(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rec.Correct {
		for _, n := range rec.Meta.Notes {
			fmt.Fprintln(stderr, "bench:", n)
		}
		return 1
	}
	return 0
}

// printResult prints every metric by name with its unit, then the summary as
// the last line.
func printResult(w io.Writer, rec *record) error {
	fmt.Fprintf(w, "workload %s seed %d rounds %d trace %t\n", rec.Workload, rec.Meta.Seed, rec.Meta.Rounds, rec.Trace)
	for _, name := range sortedKeys(rec.Metrics) {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "%-36s %s %s\n", name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "ops attempted %d failed %d correct %t\n", rec.Attempted, rec.Failed, rec.Correct)
	line, err := json.Marshal(rec.summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// appendRecord appends one JSON line to a result file.
func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json: the checkout the harness may read and write inside.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}
