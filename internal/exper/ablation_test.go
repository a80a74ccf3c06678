package exper

import (
	"strings"
	"testing"

	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

func TestPagePolicyStudy(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("hetero-6") // lbm + libquantum: heavy streamers
	res, err := r.PagePolicyStudy([]workload.Mix{mix})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if value(t, res, "hetero-6", "IPCsum close") <= 0 || value(t, res, "hetero-6", "IPCsum open") <= 0 {
		t.Fatalf("degenerate run:\n%s", res)
	}
	// Both policies must keep utilization in a sane band on a
	// bandwidth-hungry mix.
	for _, col := range []string{"busUtil close", "busUtil open"} {
		if u := value(t, res, "hetero-6", col); u < 0.5 || u > 1 {
			t.Fatalf("utilization out of band:\n%s", res)
		}
	}
	if !strings.Contains(res.String(), "hetero-6") {
		t.Fatal("render missing row")
	}
}

func TestEnforcementStudy(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("hetero-2")
	res, err := r.EnforcementStudy([]workload.Mix{mix})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		strict, shares := value(t, res, row.Key, "strict"), value(t, res, row.Key, "shares")
		if strict <= 0 || shares <= 0 {
			t.Fatalf("degenerate: %v", row.Cells)
		}
		// The two enforcement mechanisms realize the same model allocation;
		// they must land within 25% of each other.
		ratio := strict / shares
		if ratio < 0.75 || ratio > 1.33 {
			t.Errorf("%s: enforcement mechanisms diverge: strict %.3f vs shares %.3f", row.Key, strict, shares)
		}
		if obj := row.Cells[1]; obj != metrics.ObjectiveWsp.String() && obj != metrics.ObjectiveIPCSum.String() {
			t.Errorf("unexpected objective %v", obj)
		}
	}
	if !strings.Contains(res.String(), "strict") {
		t.Fatal("render missing header")
	}
}

func TestEnergyStudy(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("hetero-5")
	res, err := r.EnergyStudy(mix)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, col := range []string{"energy (mJ)", "dyn pJ/bit", "IPCsum per mJ"} {
			if value(t, res, row.Key, col) <= 0 {
				t.Fatalf("degenerate row: %v", row.Cells)
			}
		}
	}
	baseEnergy := value(t, res, NoPartitioning, "energy (mJ)")
	baseEff := value(t, res, NoPartitioning, "IPCsum per mJ")
	bestEff := 0.0
	for _, eff := range res.Column("IPCsum per mJ") {
		bestEff = max(bestEff, eff)
	}
	// B is roughly scheme-invariant, so total energy varies little...
	for _, row := range res.Rows {
		if e := value(t, res, row.Key, "energy (mJ)"); e < baseEnergy*0.8 || e > baseEnergy*1.2 {
			t.Errorf("%s: energy %v far from baseline %v", row.Key, e, baseEnergy)
		}
	}
	// ...so energy efficiency follows throughput: partitioning must beat
	// the baseline on work per joule.
	if bestEff < baseEff*1.2 {
		t.Errorf("no scheme improved energy efficiency: best %v vs base %v", bestEff, baseEff)
	}
	if !strings.Contains(res.String(), "pJ/bit") {
		t.Fatal("render incomplete")
	}
}

func TestMechanismStudy(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("hetero-5")
	res, err := r.MechanismStudy([]workload.Mix{mix})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	stf, budget := value(t, res, "hetero-5", "STF"), value(t, res, "hetero-5", "budget")
	if stf <= 0 || budget <= 0 {
		t.Fatalf("degenerate:\n%s", res)
	}
	// The two mechanisms realize the same shares; outcomes must agree
	// within enforcement tolerance.
	ratio := budget / stf
	if ratio < 0.85 || ratio > 1.18 {
		t.Fatalf("mechanisms diverge: STF %.3f vs budget %.3f", stf, budget)
	}
	if !strings.Contains(res.String(), "budget/STF") {
		t.Fatal("render incomplete")
	}
}
