package workload

import (
	"math"
	"testing"
)

func TestPhasedGeneratorValidation(t *testing.T) {
	if _, err := NewPhasedGenerator(nil, 0, 1); err == nil {
		t.Error("no phases accepted")
	}
	p, _ := ByName("milc")
	if _, err := NewPhasedGenerator([]Phase{{Profile: p, Instructions: 0}}, 0, 1); err == nil {
		t.Error("zero-length phase accepted")
	}
	bad := p
	bad.MLP = 0
	if _, err := NewPhasedGenerator([]Phase{{Profile: bad, Instructions: 10}}, 0, 1); err == nil {
		t.Error("invalid profile accepted")
	}
	if _, err := TwoPhase("milc", "nosuch", 100, 0, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := TwoPhase("nosuch", "milc", 100, 0, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestPhasedGeneratorSwitchesRates(t *testing.T) {
	// lbm phase (memory-heavy) then povray phase (compute-heavy): the
	// memory-reference rate must visibly change between phases.
	g, err := TwoPhase("lbm", "povray", 100_000, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	countRefs := func(n int) float64 {
		refs := 0
		for i := 0; i < n; i++ {
			if g.Next().Mem {
				refs++
			}
		}
		return float64(refs) / float64(n) * 1000
	}
	lbmRate := countRefs(100_000)
	if g.current != 1 {
		t.Fatalf("phase = %d after first phase consumed", g.current)
	}
	povRate := countRefs(100_000)
	lbmProf, _ := ByName("lbm")
	povProf, _ := ByName("povray")
	if math.Abs(lbmRate-lbmProf.MemRefsPerKI)/lbmProf.MemRefsPerKI > 0.05 {
		t.Errorf("phase0 refs/KI = %v, want ~%v", lbmRate, lbmProf.MemRefsPerKI)
	}
	if math.Abs(povRate-povProf.MemRefsPerKI)/povProf.MemRefsPerKI > 0.05 {
		t.Errorf("phase1 refs/KI = %v, want ~%v", povRate, povProf.MemRefsPerKI)
	}
}

func TestPhasedGeneratorWrapsAround(t *testing.T) {
	g, _ := TwoPhase("gobmk", "namd", 1000, 0, 1)
	for i := 0; i < 4500; i++ {
		g.Next()
	}
	if g.current != 0 {
		t.Fatalf("after 4.5 phases, current = %d, want 0", g.current)
	}
}

func TestPhasedGeneratorDeterministic(t *testing.T) {
	a, _ := TwoPhase("milc", "gobmk", 5000, 2, 42)
	b, _ := TwoPhase("milc", "gobmk", 5000, 2, 42)
	for i := 0; i < 20_000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("divergence at %d", i)
		}
	}
}

func TestPhasedWarmup(t *testing.T) {
	g, _ := TwoPhase("hmmer", "gobmk", 10_000, 0, 3)
	var touched int
	tc := toucherFunc(func(addr uint64, write bool) { touched++ })
	g.Warmup(tc, 50_000)
	if touched == 0 {
		t.Fatal("warmup touched nothing")
	}
}

type toucherFunc func(uint64, bool)

func (f toucherFunc) Touch(addr uint64, write bool) { f(addr, write) }
