package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"

	"bwpart"
)

// elapsedLine matches the per-experiment timing footers, the only lines of
// the report that vary from run to run.
var elapsedLine = regexp.MustCompile(`(?m)^\([a-z0-9]+ in [^)]*\)\n`)

// TestQuickAllGolden runs the whole figure suite through the command-line
// path at quick fidelity and compares the report, minus the elapsed lines,
// byte for byte with testdata/quick_all.golden. It then checks the paper's
// claims against the numbers behind the same report, with bounds measured
// at -quick, seed 1. After a deliberate change to a study's output,
// regenerate the golden with
//
//	go run ./cmd/figures -quick -exp all -seed 1 |
//	    grep -vE '^\([a-z0-9]+ in [^)]*\)$' > cmd/figures/testdata/quick_all.golden
func TestQuickAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick figure suite")
	}
	var out bytes.Buffer
	tables, err := run([]string{"-quick", "-exp", "all", "-seed", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := elapsedLine.ReplaceAll(out.Bytes(), nil)
	want, err := os.ReadFile("testdata/quick_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report differs from testdata/quick_all.golden:\n%s", firstDiff(got, want))
	}
	checkClaims(t, tables)
}

// checkClaims asserts the paper's central results and the extensions'
// premises on a finished suite's tables.
func checkClaims(t *testing.T, tables map[string][]*bwpart.Table) {
	value := func(tb *bwpart.Table, key, col string) float64 {
		t.Helper()
		v, ok := tb.Value(key, col)
		if !ok {
			t.Fatalf("%q: no value at row %q, column %q", tb.Title, key, col)
		}
		return v
	}
	derived := func(obj bwpart.Objective) string {
		t.Helper()
		s, err := bwpart.OptimalFor(obj)
		if err != nil {
			t.Fatal(err)
		}
		return s.Name()
	}

	// Figure 2 (a)-(d), one table per objective in bwpart.Objectives order:
	// each derived scheme has the highest hetero-average of the six schemes,
	// and wins each heterogeneous mix within the 1.5 % tie rule, except
	// MinFairness, which loses hetero-1, -3 and -5 to two-thirds-power.
	fig2 := tables["fig2"]
	for oi, obj := range bwpart.Objectives() {
		tb, want := fig2[oi], derived(obj)
		if got := tb.BestInRow("hetero-avg"); got != want {
			t.Errorf("Figure 2 %s: hetero-avg winner %s, want %s", obj, got, want)
		}
		for _, mix := range bwpart.HeteroMixes() {
			best := tb.BestInRow(mix.Name)
			if value(tb, mix.Name, want) >= 0.985*value(tb, mix.Name, best) {
				continue
			}
			if obj == bwpart.ObjectiveMinFairness && best == "two-thirds-power" &&
				(mix.Name == "hetero-1" || mix.Name == "hetero-3" || mix.Name == "hetero-5") {
				continue
			}
			t.Errorf("Figure 2 %s on %s: %s loses to %s beyond the tie rule", obj, mix.Name, want, best)
		}
	}

	// Figure 4: every optimal scheme's gain over Equal grows from the first
	// to the last scale point.
	fig4 := tables["fig4"][0]
	first, last := fig4.Header[1], fig4.Header[len(fig4.Header)-1]
	for _, obj := range bwpart.Objectives() {
		if lo, hi := value(fig4, obj.String(), first), value(fig4, obj.String(), last); hi <= lo {
			t.Errorf("Figure 4 %s: %.3f at %s, %.3f at %s; want growth", obj, lo, first, hi, last)
		}
	}

	// Model validation: share-based schemes within 15 %, priority schemes
	// within 35 % on Wsp and IPCsum. Priority schemes on Hsp and MinFairness
	// are left out: the model predicts zero service for the starved app
	// (value 0, error 100 %) where strict priority leaks some.
	validate := tables["validate"][0]
	for _, row := range validate.Rows {
		scheme, obj := row.Cells[1], row.Cells[2]
		bound := 0.15
		if scheme == "priority-apc" || scheme == "priority-api" {
			if obj == bwpart.ObjectiveHsp.String() || obj == bwpart.ObjectiveMinFairness.String() {
				continue
			}
			bound = 0.35
		}
		if e := value(validate, row.Key, "rel err"); e > bound {
			t.Errorf("model error on %s: %.1f%%, bound %.0f%%", row.Key, 100*e, 100*bound)
		}
	}

	// Table III: every benchmark lands in the paper's intensity class.
	for _, row := range tables["table3"][0].Rows {
		if row.Cells[5] != row.Cells[6] {
			t.Errorf("Table III %s: class %s, paper %s", row.Key, row.Cells[5], row.Cells[6])
		}
	}

	// Shared L2: API does not move under bandwidth partitioning.
	l2 := tables["sharedl2"][0]
	for _, row := range l2.Rows {
		equal, part := value(l2, row.Key, "API (equal shares)"), value(l2, row.Key, "API (partitioned)")
		if d := math.Abs(part-equal) / equal; d > 0.02 {
			t.Errorf("shared L2 %s: API moved %.1f%% under partitioning", row.Key, 100*d)
		}
	}

	// Run-to-run noise stays well below the scheme effects.
	for _, rsd := range tables["repeat"][0].Column("RSD") {
		if rsd > 5 {
			t.Errorf("run-to-run RSD %.1f%% above 5%%", rsd)
		}
	}

	// Figure 3: the QoS partitioning holds hmmer at the paper's 0.6 IPC
	// target (within 5 %) on both mixes.
	fig3 := tables["fig3"][0]
	for _, row := range fig3.Rows {
		if ipc := value(fig3, row.Key, "hmmer IPC QoS"); ipc < 0.95*0.6 {
			t.Errorf("Figure 3 %s: hmmer IPC %.3f under QoS, target 0.6", row.Key, ipc)
		}
	}
}

// firstDiff names the first differing line of two reports.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(lengths differ)"
}
