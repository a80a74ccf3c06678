package exper

import (
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
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// hmmer (index 3) with 5 ways must have lower API than with 2 ways:
	// capacity share drives API, the footnote's first claim.
	if res.Rows[1].APIShared[3] >= res.Rows[0].APIShared[3] {
		t.Errorf("hmmer API did not fall with more L2: %v -> %v",
			res.Rows[0].APIShared[3], res.Rows[1].APIShared[3])
	}
	// Second claim: API invariant under bandwidth partitioning (within
	// measurement tolerance).
	if dev := res.APIInvariance(); dev > 0.25 {
		t.Errorf("API deviated %.0f%% under bandwidth partitioning", 100*dev)
	}
	if !strings.Contains(res.Render(), "hmmer") {
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
	for i, api := range res.Rows[0].APIShared {
		if api <= 0 {
			t.Errorf("app %d (%s) measured zero API in the baseline", i, mix.Benchmarks[i])
		}
	}
}

// TestSharedL2StudyHonoursTracer: the study's runs go through the same
// settle + measure path as every other run, so Config.Tracer sees them.
func TestSharedL2StudyHonoursTracer(t *testing.T) {
	cfg := Quick()
	cfg.Sim.WarmupInstructions = 20_000
	cfg.SettleCycles, cfg.MeasureCycles = 5_000, 30_000
	traced := 0
	cfg.Tracer = func(int64, int, uint64, bool) { traced++ }
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix, _ := workload.MixByName("homo-1")
	if _, err := r.SharedL2Study(mix, [][]int{{2, 2, 2, 2}}); err != nil {
		t.Fatal(err)
	}
	if traced == 0 {
		t.Error("tracer saw no off-chip access")
	}
}
