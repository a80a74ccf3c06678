package exper

import (
	"strings"
	"testing"

	"bwpart/internal/core"
	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

func TestHeuristicStudySingleMix(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("hetero-5")
	h, err := r.RunHeuristics([]workload.Mix{mix})
	if err != nil {
		t.Fatal(err)
	}
	// Every config present with all four objectives, positive values.
	if len(h.Rows) != len(HeuristicNames())+5 {
		t.Fatalf("configs = %d", len(h.Rows))
	}
	for _, row := range h.Rows {
		for _, col := range h.Header[1:] {
			if v := value(t, h, row.Key, col); v <= 0 {
				t.Errorf("%s/%s = %v", row.Key, col, v)
			}
		}
	}
	// Fairness-oriented heuristics must not collapse fairness the way the
	// strict priority schemes do.
	strict := value(t, h, "priority-api", "MinFairness")
	for _, hName := range HeuristicNames() {
		if v := value(t, h, hName, "MinFairness"); v <= strict {
			t.Errorf("%s fairness (%.3f) at or below strict priority (%.3f)", hName, v, strict)
		}
	}
	// Render includes every row.
	text := h.String()
	for _, row := range h.Rows {
		if !strings.Contains(text, row.Key) {
			t.Errorf("render missing %s", row.Key)
		}
	}
}

// TestCapturedFraction reads, from the heuristics table, the fraction of each
// objective's optimal-scheme gain over No_partitioning that a heuristic
// captures, (h-1)/(opt-1): the paper's thesis is that heuristics partition
// bandwidth implicitly and suboptimally, so none may capture more than all
// of it.
func TestCapturedFraction(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("hetero-5")
	h, err := r.RunHeuristics([]workload.Mix{mix})
	if err != nil {
		t.Fatal(err)
	}
	for oi, obj := range metrics.Objectives() { // the table's column order
		sch, err := core.OptimalFor(obj)
		if err != nil {
			t.Fatal(err)
		}
		optName := sch.Name()
		col := h.Header[1+oi]
		opt := value(t, h, optName, col)
		if opt <= 1 {
			t.Fatalf("%s: optimal scheme %s gains nothing (%.3f)", col, optName, opt)
		}
		for _, hName := range HeuristicNames() {
			if frac := (value(t, h, hName, col) - 1) / (opt - 1); frac > 1 {
				t.Errorf("%s captures %.2f of %s's %s gain", hName, frac, optName, col)
			}
		}
	}
}
