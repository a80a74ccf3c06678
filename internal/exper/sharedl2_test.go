package exper

import (
	"math"
	"strings"
	"testing"

	"bwpart/internal/workload"
)

func TestSharedL2Study(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("homo-1") // libquantum-milc-soplex-hmmer
	quotas := [][]int{
		{2, 2, 2, 2},
		{1, 1, 1, 5}, // hmmer gets most of the cache
	}
	res, err := r.SharedL2Study(mix, quotas)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2*len(mix.Benchmarks) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// hmmer (index 3) with 5 ways must have lower API than with 2 ways:
	// capacity share drives API, the footnote's first claim.
	api2 := value(t, res, "[2 2 2 2]/hmmer", "API (equal shares)")
	api5 := value(t, res, "[1 1 1 5]/hmmer", "API (equal shares)")
	if api5 >= api2 {
		t.Errorf("hmmer API did not fall with more L2: %v -> %v", api2, api5)
	}
	// Second claim: API invariant under bandwidth partitioning (within
	// measurement tolerance).
	if dev := apiDeviation(t, res); dev > 0.25 {
		t.Errorf("API deviated %.0f%% under bandwidth partitioning", 100*dev)
	}
	if !strings.Contains(res.String(), "hmmer") {
		t.Fatal("render missing app rows")
	}
}

func TestSharedL2StudyValidation(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("homo-1")
	if _, err := r.SharedL2Study(mix, nil); err == nil {
		t.Error("empty quota list accepted")
	}
	if _, err := r.SharedL2Study(mix, [][]int{{1, 1}}); err == nil {
		t.Error("wrong-length quota accepted")
	}
}

func TestSharedL2NoAppFullyStarvedInBaseline(t *testing.T) {
	// The equal-share API baseline must keep every app measurable (the
	// regression behind this test: an FCFS baseline starved hmmer to zero
	// off-chip accesses, making its API comparison vacuous).
	r := quickRunner(t)
	mix, _ := workload.MixByName("homo-1")
	res, err := r.SharedL2Study(mix, [][]int{{1, 1, 1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range mix.Benchmarks {
		if api := value(t, res, "[1 1 1 5]/"+name, "API (equal shares)"); api <= 0 {
			t.Errorf("app %d (%s) measured zero API in the baseline", i, name)
		}
	}
}

// apiDeviation is the largest relative change of an app's API between the
// equal-share and the partitioned run, over every row of a shared-L2 table.
func apiDeviation(t *testing.T, res *Table) float64 {
	t.Helper()
	worst := 0.0
	for _, row := range res.Rows {
		equal, part := value(t, res, row.Key, "API (equal shares)"), value(t, res, row.Key, "API (partitioned)")
		if equal > 0 {
			worst = max(worst, math.Abs(part-equal)/equal)
		}
	}
	return worst
}
