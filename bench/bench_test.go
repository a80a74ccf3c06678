package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func testSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesBenchmarkJSON pins BENCHMARK.json to the harness's own
// metric and workload tables.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec := testSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("workloads %v, harness runs %v", names, workloadNames)
	}
	if spec.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, harness nominal %d", spec.RunSeconds, nominalSeconds)
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, harness has %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: outside the allowed alphabet", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	maxBound := 0.0
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup || endToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must be an end-to-end metric in s, lower-better, with the largest bound")
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and checks
// that each emits exactly the metric names BENCHMARK.json lists, once each,
// with no failed operation.
func TestSmoke(t *testing.T) {
	spec := testSpec(t)
	want := map[int][]specMetric{0: spec.EndToEnd, 1: spec.PerLayer}
	for _, wl := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			t.Run(fmt.Sprintf("%s/trace%d", wl, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", wl, "--seed", "3", "--seconds", "24", "--trace", fmt.Sprint(trace), "-size", "tiny"}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var sum struct {
					Correct   bool                       `json:"correct"`
					Attempted int                        `json:"attempted"`
					Failed    int                        `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&sum); err != nil {
					t.Fatalf("last line is not the summary object: %v", err)
				}
				if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
					t.Errorf("correct %t, attempted %d, failed %d", sum.Correct, sum.Attempted, sum.Failed)
				}
				if len(sum.Metrics) != len(want[trace]) {
					t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(sum.Metrics), len(want[trace]))
				}
				for _, d := range want[trace] {
					raw, ok := sum.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					var m metricValue
					if err := json.Unmarshal(raw, &m); err != nil || m.Unit != d.Unit {
						t.Errorf("metric %s: %s (want unit %s): %v", d.Name, raw, d.Unit, err)
					}
					// Every metric is also printed by name with its unit.
					if n := strings.Count(stdout.String(), "\n"+d.Name+" "); n != 1 {
						t.Errorf("metric %s printed %d times", d.Name, n)
					}
				}
			})
		}
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(root, ".bench_build", "tmp", "ckpt-*")); len(left) != 0 {
		t.Errorf("temporary checkpoint directories left behind: %v", left)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := quartiles([]float64{4, 1, 2}); got != [3]float64{1, 2, 4} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestPercentileRule(t *testing.T) {
	if percentileSupported(199, 0.5) || percentileSupported(200, 0.96) || !percentileSupported(200, 0.95) {
		t.Error("a percentile needs 200 samples in the round and 10 beyond it")
	}
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if p50, p95 := percentileNS(sorted, 0.5), percentileNS(sorted, 0.95); p50 != 50 || p95 != 95 {
		t.Errorf("p50 %v p95 %v", p50, p95)
	}
}

// TestCompare drives -compare over synthetic result files.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cells, ckpt float64) string {
		path := filepath.Join(dir, name)
		for _, rec := range []record{
			{Workload: wlSweepCold, summary: summary{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"cells_per_s": {cells, "cells/s"}, "setup_s": {0.4, "s"}}}},
			{Workload: wlSweepCold, Trace: true, summary: summary{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"exper.ckpt_hits": {ckpt, "count"}, "sim.new_ms": {cells, "ms"}}}},
		} {
			if err := appendRecord(path, &rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 18, 0)
	for _, tc := range []struct {
		name        string
		cells, ckpt float64
		want        int
	}{
		{"same", 18, 0, 0},
		{"within", 15, 0, 0},      // 16.7% fewer cells/s, bound 25%
		{"faster", 30, 0, 0},      // better is never a breach
		{"breach", 12, 0, 1},      // 33% fewer cells/s
		{"count-drift", 18, 1, 1}, // exact metrics may not move at all
	} {
		var stdout, stderr bytes.Buffer
		got := compareFiles(base, write(tc.name+".jsonl", tc.cells, tc.ckpt), &stdout, &stderr)
		if got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, got, tc.want, stdout.String(), stderr.String())
		}
	}
	if _, err := os.Stat(base); err != nil {
		t.Fatal(err)
	}
}
