package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bwpart/internal/mathx"
	"bwpart/internal/metrics"
)

// tightWorkload is randomWorkload constrained so no per-app cap binds under
// the square-root allocation (the closed forms' validity region).
func tightWorkload(r *rand.Rand) (apc, api []float64, b float64) {
	for {
		apc, api, b = randomWorkload(r)
		if sqrtFeasible(apc, b) && b <= mathx.Sum(apc) {
			return apc, api, b
		}
	}
}

// approxEqual reports whether a and b agree within 1e-12 absolute or 1e-9
// relative tolerance.
func approxEqual(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-12 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestPredictIPC(t *testing.T) {
	ipc, err := PredictIPC([]float64{0.01, 0.02}, []float64{0.05, 0.04})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ipc[0]-0.2) > 1e-12 || math.Abs(ipc[1]-0.5) > 1e-12 {
		t.Fatalf("ipc = %v", ipc)
	}
	if _, err := PredictIPC([]float64{1}, []float64{0}); err == nil {
		t.Error("zero API accepted")
	}
	if _, err := PredictIPC([]float64{-1}, []float64{1}); err == nil {
		t.Error("negative APC accepted")
	}
	if _, err := PredictIPC(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestMaxHspMatchesDirectEvaluation(t *testing.T) {
	// Eq. 4 must equal Hsp evaluated at the Eq. 5 allocation.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apc, api, b := tightWorkload(r)
		closed, err := MaxHsp(apc, b)
		if err != nil {
			return false
		}
		direct, err := Evaluate(metrics.ObjectiveHsp, SquareRoot(), apc, api, b)
		if err != nil {
			return false
		}
		return approxEqual(closed, direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSqrtWspMatchesDirectEvaluation(t *testing.T) {
	// Our corrected Eq. 6 must equal Wsp evaluated at the Eq. 5 allocation.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apc, api, b := tightWorkload(r)
		closed, err := SqrtWsp(apc, b)
		if err != nil {
			return false
		}
		direct, err := Evaluate(metrics.ObjectiveWsp, SquareRoot(), apc, api, b)
		if err != nil {
			return false
		}
		return approxEqual(closed, direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperEq6AsPrintedIsWrong(t *testing.T) {
	// Documented erratum: Eq. 6 as printed, (B/N)(sum 1/sqrt(a))^2, exceeds
	// even the knapsack-optimal weighted speedup on a simple workload.
	apc := []float64{1, 4}
	api := []float64{1, 1}
	b := 1.0
	printed := b / 2 * math.Pow(1/math.Sqrt(1.0)+1/math.Sqrt(4.0), 2)
	// Best possible Wsp: fill app 0 (lowest APC) completely.
	bestPossible, err := Evaluate(metrics.ObjectiveWsp, PriorityAPC(), apc, api, b)
	if err != nil {
		t.Fatal(err)
	}
	if printed <= bestPossible {
		t.Fatalf("expected printed Eq.6 (%v) to exceed the optimum (%v) — erratum no longer demonstrated", printed, bestPossible)
	}
	corrected, err := SqrtWsp(apc, b)
	if err != nil {
		t.Fatal(err)
	}
	if corrected > bestPossible {
		t.Fatalf("corrected form %v exceeds knapsack optimum %v", corrected, bestPossible)
	}
}

func TestPropHspWspMatchesDirectEvaluation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apc, api, b := tightWorkload(r)
		closed, err := PropHspWsp(apc, b)
		if err != nil {
			return false
		}
		h, err1 := Evaluate(metrics.ObjectiveHsp, Proportional(), apc, api, b)
		w, err2 := Evaluate(metrics.ObjectiveWsp, Proportional(), apc, api, b)
		return err1 == nil && err2 == nil &&
			approxEqual(closed, h) &&
			approxEqual(closed, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCauchyOrderingHolds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apc, _, b := tightWorkload(r)
		ok, err := CauchyOrdering(apc, b)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClosedFormsRejectInfeasible(t *testing.T) {
	// One app dominates so hard that the sqrt allocation would exceed the
	// small app's demand... construct: b close to total with a tiny app.
	apc := []float64{0.0001, 1}
	if _, err := MaxHsp(apc, 1.0); err == nil {
		t.Error("MaxHsp accepted cap-binding workload")
	}
	if _, err := SqrtWsp(apc, 1.0); err == nil {
		t.Error("SqrtWsp accepted cap-binding workload")
	}
	if _, err := PropHspWsp([]float64{1, 1}, 3); err == nil {
		t.Error("PropHspWsp accepted overprovisioned bandwidth")
	}
	if _, err := MaxHsp(nil, 1); err == nil {
		t.Error("MaxHsp accepted empty input")
	}
}

func TestProportionalEqualizesSpeedups(t *testing.T) {
	// Ideal fairness (Eq. 7): all speedups equal under Proportional.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apc, api, b := tightWorkload(r)
		x, err := Proportional().Allocate(apc, api, b)
		if err != nil {
			return false
		}
		shared, _ := PredictIPC(x, api)
		alone, _ := AloneIPC(apc, api)
		sp, _ := metrics.Speedups(shared, alone)
		for _, s := range sp[1:] {
			if math.Abs(s-sp[0]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// assertSchemeOptimal verifies via the numeric optimizer that no feasible
// allocation beats the derived scheme by more than tol (relative).
func assertSchemeOptimal(t *testing.T, obj metrics.Objective, seedCount int, tol float64) {
	t.Helper()
	scheme, err := OptimalFor(obj)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= int64(seedCount); seed++ {
		r := rand.New(rand.NewSource(seed))
		apc, api, b := randomWorkload(r)
		derived, err := Evaluate(obj, scheme, apc, api, b)
		if err != nil {
			t.Fatal(err)
		}
		_, numeric, err := MaximizeObjective(obj, apc, api, b, OptOptions{Iters: 250, Restarts: 6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if numeric > derived*(1+tol)+1e-12 {
			t.Fatalf("seed %d: optimizer found %v for %v, derived scheme %s achieves only %v (apc=%v b=%v)",
				seed, numeric, obj, scheme.Name(), derived, apc, b)
		}
	}
}

func TestSquareRootOptimalForHsp(t *testing.T) {
	assertSchemeOptimal(t, metrics.ObjectiveHsp, 12, 0.01)
}

func TestPriorityAPCOptimalForWsp(t *testing.T) {
	assertSchemeOptimal(t, metrics.ObjectiveWsp, 12, 0.005)
}

func TestPriorityAPIOptimalForIPCSum(t *testing.T) {
	assertSchemeOptimal(t, metrics.ObjectiveIPCSum, 12, 0.005)
}

func TestProportionalOptimalForMinFairness(t *testing.T) {
	assertSchemeOptimal(t, metrics.ObjectiveMinFairness, 12, 0.02)
}

func TestOptimizerRespectsConstraints(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	apc, api, b := randomWorkload(r)
	x, _, err := MaximizeObjective(metrics.ObjectiveHsp, apc, api, b, OptOptions{Iters: 100, Restarts: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := range x {
		if x[i] < -1e-9 || x[i] > apc[i]*(1+1e-9) {
			t.Fatalf("allocation violates caps: %v (caps %v)", x, apc)
		}
		sum += x[i]
	}
	want := math.Min(b, mathx.Sum(apc))
	if math.Abs(sum-want) > 1e-6*want {
		t.Fatalf("allocation sums to %v, want %v", sum, want)
	}
}

func TestProjectCappedSimplex(t *testing.T) {
	caps := []float64{1, 1, 1}
	x := projectCappedSimplex([]float64{5, 0, 0}, caps, 2)
	// Projection of (5,0,0) with caps 1: first coordinate caps at 1, the
	// remaining budget splits evenly by symmetry.
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-0.5) > 1e-9 || math.Abs(x[2]-0.5) > 1e-9 {
		t.Fatalf("projection = %v", x)
	}
	// Already feasible point projects to itself.
	y := projectCappedSimplex([]float64{0.5, 0.75, 0.75}, caps, 2)
	for i, v := range []float64{0.5, 0.75, 0.75} {
		if math.Abs(y[i]-v) > 1e-9 {
			t.Fatalf("feasible point moved: %v", y)
		}
	}
}

func TestEvaluateAllocationAgainstMetrics(t *testing.T) {
	apcShared := []float64{0.004, 0.006}
	apcAlone := []float64{0.008, 0.006}
	api := []float64{0.04, 0.03}
	got, err := EvaluateAllocation(metrics.ObjectiveWsp, apcShared, apcAlone, api)
	if err != nil {
		t.Fatal(err)
	}
	// speedups: 0.5 and 1.0 -> Wsp 0.75
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Wsp = %v, want 0.75", got)
	}
}

func TestAllocationMonotonicInBandwidth(t *testing.T) {
	// For every scheme, each app's allocation is non-decreasing in B:
	// adding bandwidth never takes service away from anyone.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apc, api, b := randomWorkload(r)
		b2 := b * (1 + r.Float64())
		for _, s := range Schemes() {
			x1, err1 := s.Allocate(apc, api, b)
			x2, err2 := s.Allocate(apc, api, b2)
			if err1 != nil || err2 != nil {
				return false
			}
			for i := range x1 {
				if x2[i] < x1[i]-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestObjectivesMonotonicInBandwidth(t *testing.T) {
	// Every objective value under every scheme is non-decreasing in B.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apc, api, b := randomWorkload(r)
		b2 := b * (1 + r.Float64())
		for _, s := range Schemes() {
			for _, obj := range metrics.Objectives() {
				v1, err1 := Evaluate(obj, s, apc, api, b)
				v2, err2 := Evaluate(obj, s, apc, api, b2)
				if err1 != nil || err2 != nil {
					return false
				}
				if v2 < v1-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocationScaleInvariance(t *testing.T) {
	// Weight schemes are scale-invariant: scaling all APC_alone and B by
	// the same factor scales the allocation by that factor.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apc, api, b := randomWorkload(r)
		k := 0.5 + 2*r.Float64()
		apcK := make([]float64, len(apc))
		for i := range apc {
			apcK[i] = apc[i] * k
		}
		for _, s := range []*WeightScheme{Equal(), Proportional(), SquareRoot(), TwoThirdsPower()} {
			x, err1 := s.Allocate(apc, api, b)
			xk, err2 := s.Allocate(apcK, api, b*k)
			if err1 != nil || err2 != nil {
				return false
			}
			for i := range x {
				if !approxEqual(xk[i], x[i]*k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
