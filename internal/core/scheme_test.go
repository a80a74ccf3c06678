package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bwpart/internal/mathx"
	"bwpart/internal/metrics"
)

// randomWorkload draws n in [2,6] apps with APC_alone in (0.05, 2.05) and
// API in (0.005, 0.105), plus a bandwidth that keeps the problem tight
// (B < total demand) most of the time.
func randomWorkload(r *rand.Rand) (apc, api []float64, b float64) {
	n := 2 + r.Intn(5)
	apc = make([]float64, n)
	api = make([]float64, n)
	var total float64
	for i := range apc {
		apc[i] = 0.05 + 2*r.Float64()
		api[i] = 0.005 + 0.1*r.Float64()
		total += apc[i]
	}
	b = total * (0.2 + 0.7*r.Float64())
	return apc, api, b
}

func TestSchemeNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Schemes() {
		if s.Name() == "" || seen[s.Name()] {
			t.Fatalf("bad/duplicate scheme name %q", s.Name())
		}
		seen[s.Name()] = true
	}
	if len(seen) != 6 {
		t.Fatalf("expected 6 schemes, got %d", len(seen))
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"equal", "proportional", "square-root", "two-thirds-power", "priority-apc", "priority-api"} {
		s, err := ByName(want)
		if err != nil || s.Name() != want {
			t.Errorf("ByName(%s) = %v, %v", want, s, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestInputValidation(t *testing.T) {
	s := Equal()
	cases := []struct {
		apc, api []float64
		b        float64
	}{
		{nil, nil, 1},
		{[]float64{1}, []float64{1, 2}, 1},
		{[]float64{0}, []float64{1}, 1},
		{[]float64{1}, []float64{0}, 1},
		{[]float64{1}, []float64{1}, 0},
		{[]float64{1, -2}, []float64{1, 1}, 1},
	}
	for i, c := range cases {
		if _, err := s.Allocate(c.apc, c.api, c.b); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestWeightSharesOnSimplex(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apc, _, _ := randomWorkload(r)
		for _, s := range []*WeightScheme{Equal(), Proportional(), SquareRoot(), TwoThirdsPower()} {
			sh, err := s.Shares(apc)
			if err != nil || !(slices.Min(sh) >= 0 && slices.Max(sh) <= 1 && math.Abs(mathx.Sum(sh)-1) <= 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEqualSharesAreUniform(t *testing.T) {
	sh, err := Equal().Shares([]float64{5, 1, 0.2, 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sh {
		if math.Abs(b-0.25) > 1e-12 {
			t.Fatalf("shares = %v", sh)
		}
	}
}

func TestProportionalSharesMatchRatios(t *testing.T) {
	apc := []float64{1, 3}
	sh, _ := Proportional().Shares(apc)
	if math.Abs(sh[0]-0.25) > 1e-12 || math.Abs(sh[1]-0.75) > 1e-12 {
		t.Fatalf("shares = %v", sh)
	}
}

func TestSquareRootSharesMatchPaperRule(t *testing.T) {
	// beta_i / beta_j = sqrt(a_i) / sqrt(a_j) (paper Sec. III-B).
	apc := []float64{1, 4, 9}
	sh, _ := SquareRoot().Shares(apc)
	if math.Abs(sh[0]/sh[1]-0.5) > 1e-12 || math.Abs(sh[1]/sh[2]-2.0/3.0) > 1e-12 {
		t.Fatalf("shares = %v", sh)
	}
}

func TestTwoThirdsPowerBetweenSqrtAndProportional(t *testing.T) {
	// For the highest-APC app, share ordering must be
	// sqrt <= 2/3-power <= proportional, reversed for the lowest-APC app.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apc, _, _ := randomWorkload(r)
		hi, lo := 0, 0
		for i, a := range apc {
			if a > apc[hi] {
				hi = i
			}
			if a < apc[lo] {
				lo = i
			}
		}
		s, _ := SquareRoot().Shares(apc)
		tt, _ := TwoThirdsPower().Shares(apc)
		p, _ := Proportional().Shares(apc)
		const eps = 1e-9
		return s[hi] <= tt[hi]+eps && tt[hi] <= p[hi]+eps &&
			p[lo] <= tt[lo]+eps && tt[lo] <= s[lo]+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocationInvariants(t *testing.T) {
	// Every scheme: 0 <= x_i <= a_i and sum x = min(B, sum a).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apc, api, b := randomWorkload(r)
		if seed%3 == 0 {
			b = mathx.Sum(apc) * 1.5 // overprovisioned case
		}
		want := math.Min(b, mathx.Sum(apc))
		for _, s := range Schemes() {
			x, err := s.Allocate(apc, api, b)
			if err != nil {
				return false
			}
			var sum float64
			for i := range x {
				if x[i] < -1e-12 || x[i] > apc[i]*(1+1e-9) {
					return false
				}
				sum += x[i]
			}
			if math.Abs(sum-want) > 1e-6*want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWaterFillRedistributesExcess(t *testing.T) {
	// Equal shares over apps with one tiny demand: the tiny app caps at its
	// demand and the rest goes to the others.
	apc := []float64{0.01, 1, 1}
	api := []float64{0.01, 0.01, 0.01}
	x, err := Equal().Allocate(apc, api, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-0.01) > 1e-12 {
		t.Fatalf("capped app got %v, want its demand 0.01", x[0])
	}
	if math.Abs(x[1]-x[2]) > 1e-12 {
		t.Fatalf("equal split broken: %v", x)
	}
	if math.Abs(x[0]+x[1]+x[2]-0.9) > 1e-9 {
		t.Fatalf("bandwidth not conserved: %v", x)
	}
}

func TestPriorityOrderAPCAscending(t *testing.T) {
	apc := []float64{3, 1, 2}
	api := []float64{0.9, 0.8, 0.7}
	order, err := PriorityAPC().Order(apc, api)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPriorityOrderAPIAscending(t *testing.T) {
	apc := []float64{3, 1, 2}
	api := []float64{0.9, 0.8, 0.7}
	order, err := PriorityAPI().Order(apc, api)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPriorityAllocationGreedy(t *testing.T) {
	// B=2: app with apc 1 filled fully, app with apc 2 gets remaining 1,
	// app with apc 3 starved.
	apc := []float64{3, 1, 2}
	api := []float64{1, 1, 1}
	x, err := PriorityAPC().Allocate(apc, api, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("allocation = %v, want %v", x, want)
		}
	}
}

func TestPrioritySchemesSameOnCorrelatedWorkload(t *testing.T) {
	// Paper Sec. VI-A: when higher-API apps are also higher-APC apps (the
	// heterogeneous mixes), Priority_API and Priority_APC coincide.
	apc := []float64{0.5, 1.0, 2.0, 4.0}
	api := []float64{0.01, 0.02, 0.04, 0.08}
	a1, _ := PriorityAPC().Allocate(apc, api, 3)
	a2, _ := PriorityAPI().Allocate(apc, api, 3)
	for i := range a1 {
		if math.Abs(a1[i]-a2[i]) > 1e-12 {
			t.Fatalf("allocations differ: %v vs %v", a1, a2)
		}
	}
}

func TestPrioritySchemesDifferOnAnticorrelated(t *testing.T) {
	// hmmer-like app: high APC_alone but low API. Priority_API favors it,
	// Priority_APC does not.
	apc := []float64{2.0, 1.0}  // app0: high APC
	api := []float64{0.01, 0.1} // app0: low API
	byAPC, _ := PriorityAPC().Order(apc, api)
	byAPI, _ := PriorityAPI().Order(apc, api)
	if byAPC[0] != 1 || byAPI[0] != 0 {
		t.Fatalf("orders byAPC=%v byAPI=%v", byAPC, byAPI)
	}
}

func TestOptimalForMapping(t *testing.T) {
	cases := map[metrics.Objective]string{
		metrics.ObjectiveHsp:         "square-root",
		metrics.ObjectiveMinFairness: "proportional",
		metrics.ObjectiveWsp:         "priority-apc",
		metrics.ObjectiveIPCSum:      "priority-api",
	}
	for obj, want := range cases {
		s, err := OptimalFor(obj)
		if err != nil || s.Name() != want {
			t.Errorf("OptimalFor(%v) = %v, %v; want %s", obj, s, err, want)
		}
	}
	if _, err := OptimalFor(metrics.Objective(42)); err == nil {
		t.Error("unknown objective accepted")
	}
}

// TestPriorityAllocateUlpResidue probes the greedy fill's floating-point
// residue handling: with B within one ulp of total demand, the sequential
// `remaining -= grant` subtractions must neither produce a negative grant
// nor let the allocation's sum stray from min(B, sum APC_alone) by more
// than accumulated rounding.
func TestPriorityAllocateUlpResidue(t *testing.T) {
	apc := []float64{0.123456789, 0.0789, 0.33333333333, 0.0101, 0.27}
	api := []float64{0.01, 0.02, 0.015, 0.05, 0.03}
	total := mathx.Sum(apc)
	budgets := []float64{
		total,
		math.Nextafter(total, 0),           // one ulp under demand
		math.Nextafter(total, math.Inf(1)), // one ulp over demand
		math.Nextafter(math.Nextafter(total, 0), 0),
	}
	for _, s := range []Scheme{PriorityAPC(), PriorityAPI()} {
		for _, b := range budgets {
			x, err := s.Allocate(apc, api, b)
			if err != nil {
				t.Fatalf("%s(b=%v): %v", s.Name(), b, err)
			}
			var sum float64
			for i := range x {
				if x[i] < 0 {
					t.Fatalf("%s(b=%v): negative grant x[%d] = %v", s.Name(), b, i, x[i])
				}
				if x[i] > apc[i] {
					t.Fatalf("%s(b=%v): grant x[%d] = %v exceeds demand %v", s.Name(), b, i, x[i], apc[i])
				}
				sum += x[i]
			}
			want := math.Min(b, total)
			// Allow a few ulps: the grants telescope through len(apc)
			// sequential subtractions and are re-summed in index order.
			tol := 8 * ulp(want)
			if math.Abs(sum-want) > tol {
				t.Fatalf("%s(b=%v): allocation sums to %v, want %v (|diff| %g > tol %g)",
					s.Name(), b, sum, want, math.Abs(sum-want), tol)
			}
		}
	}
}

// ulp returns the distance from v to the next float64 above it.
func ulp(v float64) float64 { return math.Nextafter(v, math.Inf(1)) - v }
