package exper

import (
	"strings"
	"testing"

	"bwpart/internal/workload"
)

func TestPhaseStudyTracksPhases(t *testing.T) {
	r := quickRunner(t)
	res, err := r.PhaseStudy(100_000, 200_000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("epochs = %d", len(res.Rows))
	}
	// The online profiler must see the phase change: its APC_alone
	// estimate for the phased app swings substantially across epochs
	// (lbm-like streaming vs povray-like compute).
	if lo, hi := span(res.Column("est APC_alone (phased)")); hi < 1.5*lo {
		t.Errorf("estimate swing %.2fx — phases not tracked", hi/lo)
	}
	// The phased app's measured IPC must also swing with the phases, and
	// both systems stay live.
	for _, row := range res.Rows {
		for _, col := range res.Header[2:] {
			if value(t, res, row.Key, col) <= 0 {
				t.Fatalf("degenerate epoch: %v", row.Cells)
			}
		}
	}
	if minIPC, maxIPC := span(res.Column("phased IPC online")); maxIPC < 2*minIPC {
		t.Errorf("phased app IPC swing %.3f..%.3f too small for a phase change", minIPC, maxIPC)
	}
	if !strings.Contains(res.String(), "estimate swing") {
		t.Fatal("render incomplete")
	}
}

// span returns the smallest and largest of xs.
func span(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

func TestPhaseStudyValidation(t *testing.T) {
	r := quickRunner(t)
	if _, err := r.PhaseStudy(0, 1000, 3); err == nil {
		t.Error("zero phase length accepted")
	}
	if _, err := r.PhaseStudy(1000, 0, 3); err == nil {
		t.Error("zero epoch accepted")
	}
	if _, err := r.PhaseStudy(1000, 1000, 1); err == nil {
		t.Error("single epoch accepted")
	}
}

func TestIntervalStudy(t *testing.T) {
	r := quickRunner(t)
	mix, err := workload.MixByName("hetero-5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.IntervalStudy(mix, "square-root", []int64{60_000, 150_000, 300_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("points = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if hsp := value(t, res, row.Key, "Hsp"); hsp <= 0 {
			t.Errorf("epoch %s: Hsp %v", row.Key, hsp)
		}
		if e := value(t, res, row.Key, "estimator error"); e < 0 || e > 2 {
			t.Errorf("epoch %s: estimator error %v out of band", row.Key, e)
		}
	}
	if !strings.Contains(res.String(), "epoch") {
		t.Fatal("render incomplete")
	}
}

func TestIntervalStudyValidation(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("hetero-5")
	if _, err := r.IntervalStudy(mix, "square-root", nil); err == nil {
		t.Error("empty points accepted")
	}
	if _, err := r.IntervalStudy(mix, "square-root", []int64{0}); err == nil {
		t.Error("zero epoch accepted")
	}
}
