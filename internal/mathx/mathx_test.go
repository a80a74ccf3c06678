package mathx

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSumEmpty(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %v, want 0", got)
	}
}

func TestSumKahanCompensation(t *testing.T) {
	// 1 followed by many tiny values that naive summation would drop.
	xs := make([]float64, 1+1e6)
	xs[0] = 1
	for i := 1; i < len(xs); i++ {
		xs[i] = 1e-16
	}
	got := Sum(xs)
	want := 1 + 1e6*1e-16
	if math.Abs(got-want) > 1e-12*want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

func TestMean(t *testing.T) {
	got, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || got != 2.5 {
		t.Fatalf("Mean = %v, %v; want 2.5, nil", got, err)
	}
	if _, err := Mean(nil); err == nil {
		t.Fatal("Mean(nil) should error")
	}
}

func TestRSDKnownValue(t *testing.T) {
	// Values 2,4,4,4,5,5,7,9: mean 5, sum of squared deviations 32,
	// sample stddev sqrt(32/7) => RSD = 100*sqrt(32/7)/5.
	rsd, err := RSD([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	want := 100 * math.Sqrt(32.0/7.0) / 5
	if err != nil || math.Abs(rsd-want) > 1e-9 {
		t.Fatalf("RSD = %v, %v; want %v", rsd, err, want)
	}
}

func TestSampleStdDev(t *testing.T) {
	sd, err := SampleStdDev([]float64{1, 3})
	if err != nil || math.Abs(sd-math.Sqrt2) > 1e-12 {
		t.Fatalf("SampleStdDev(1,3) = %v, %v; want sqrt(2)", sd, err)
	}
	if _, err := SampleStdDev([]float64{1}); err == nil {
		t.Fatal("single element should error")
	}
}

func TestRSDErrors(t *testing.T) {
	if _, err := RSD(nil); err == nil {
		t.Fatal("RSD(nil) should error")
	}
	if _, err := RSD([]float64{1, -1}); err == nil {
		t.Fatal("RSD with zero mean should error")
	}
	if _, err := RSD([]float64{5}); err == nil {
		t.Fatal("RSD of one value should error")
	}
}

func TestNormalize(t *testing.T) {
	out, err := Normalize([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0.25 || out[1] != 0.75 {
		t.Fatalf("Normalize = %v", out)
	}
	if _, err := Normalize([]float64{0, 0}); err == nil {
		t.Fatal("Normalize of zeros should error")
	}
	if _, err := Normalize([]float64{-2, 1}); err == nil {
		t.Fatal("Normalize of negative total should error")
	}
}

func TestNormalizeDoesNotMutate(t *testing.T) {
	in := []float64{2, 2}
	if _, err := Normalize(in); err != nil {
		t.Fatal(err)
	}
	if in[0] != 2 || in[1] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() + 0.01
		}
		out, err := Normalize(xs)
		return err == nil && AllPositive(out) && slices.Max(out) <= 1 && math.Abs(Sum(out)-1) <= 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllPositive(t *testing.T) {
	if !AllPositive([]float64{1, 2}) {
		t.Fatal("AllPositive(1,2) = false")
	}
	if AllPositive([]float64{1, 0}) {
		t.Fatal("AllPositive with zero = true")
	}
	if AllPositive(nil) {
		t.Fatal("AllPositive(nil) = true")
	}
	if AllPositive([]float64{math.Inf(1)}) {
		t.Fatal("AllPositive(+Inf) = true")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
}

func TestMeanStd(t *testing.T) {
	m, s, err := MeanStd([]float64{1, 3})
	if err != nil || m != 2 || math.Abs(s-math.Sqrt2) > 1e-12 {
		t.Fatalf("MeanStd = %v, %v, %v", m, s, err)
	}
	m, s, err = MeanStd([]float64{5})
	if err != nil || m != 5 || s != 0 {
		t.Fatalf("single element: %v, %v, %v", m, s, err)
	}
	if _, _, err := MeanStd(nil); err == nil {
		t.Fatal("empty accepted")
	}
}
