package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	spec := &benchmarkSpec{}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// resultSet is one result file: per (workload, metric), the values of every
// run the file holds.
type resultSet map[string]map[string][]float64

func readResultSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(resultSet)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s:%d: %s run is not correct (%d of %d ops failed)", path, line, rec.Workload, rec.Failed, rec.Attempted)
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// worsening is how much worse b is than a, as a share of a.
func worsening(better string, a, b float64) float64 {
	if a == b {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allEqual reports whether every value equals the first.
func allEqual(vs []float64) bool {
	for _, v := range vs {
		if v != vs[0] {
			return false
		}
	}
	return true
}

// compareFiles applies BENCHMARK.json's bounds to two result files: for every
// (workload, metric) both hold, the median of B may be worse than the median
// of A by at most the metric's bound, and a simulated-time or count metric
// must be identical in every run of both. It prints each gap and returns
// non-zero on any breach.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	a, err := readResultSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := readResultSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	exact := make(map[string]bool)
	for _, d := range perLayer {
		exact[d.Name] = d.Exact
	}

	defs := append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	breaches, compared := 0, 0
	fmt.Fprintf(stdout, "%-15s %-34s %14s %14s %9s %7s\n", "workload", "metric", "median A", "median B", "worse by", "bound")
	for _, wl := range spec.Workloads {
		for _, d := range defs {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			compared++
			ma, mb := median(va), median(vb)
			gap := worsening(d.Better, ma, mb)
			verdict, bound := "", "-"
			switch {
			case exact[d.Name]:
				bound = "exact"
				if !allEqual(append(append([]float64(nil), va...), vb...)) {
					verdict = "  DIFFERS"
					breaches++
				}
			case d.Bound > 0:
				bound = fmt.Sprintf("%.1f%%", 100*d.Bound)
				if gap > d.Bound {
					verdict = "  BREACH"
					breaches++
				}
			}
			fmt.Fprintf(stdout, "%-15s %-34s %14.6g %14.6g %+8.2f%% %7s%s\n", wl.Name, d.Name, ma, mb, 100*gap, bound, verdict)
		}
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "bench: the two files share no (workload, metric) pair")
		return 1
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "%d of %d comparisons breach\n", breaches, compared)
		return 1
	}
	fmt.Fprintf(stdout, "all %d comparisons within bounds\n", compared)
	return 0
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
