package workload

import (
	"math"
	"testing"

	"bwpart/internal/cache"
	"bwpart/internal/mem"
)

func TestAllProfilesValid(t *testing.T) {
	ps := All()
	if len(ps) != 16 {
		t.Fatalf("expected 16 SPEC profiles, got %d", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProfilesSortedByAPKC(t *testing.T) {
	ps := All()
	for i := 1; i < len(ps); i++ {
		if ps[i].TableAPKC > ps[i-1].TableAPKC {
			t.Fatalf("profiles not sorted: %s (%v) after %s (%v)",
				ps[i].Name, ps[i].TableAPKC, ps[i-1].Name, ps[i-1].TableAPKC)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("lbm")
	if err != nil || p.Name != "lbm" {
		t.Fatalf("ByName(lbm) = %v, %v", p, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestClassificationMatchesTable3(t *testing.T) {
	// Paper Table III: lbm is the only high-intensity app; the middle group
	// is libquantum..leslie3d; the rest are low.
	wantHigh := map[string]bool{"lbm": true}
	wantMiddle := map[string]bool{
		"libquantum": true, "milc": true, "soplex": true, "hmmer": true,
		"omnetpp": true, "sphinx3": true, "leslie3d": true,
	}
	for _, p := range All() {
		got := p.Class()
		switch {
		case wantHigh[p.Name] && got != High:
			t.Errorf("%s: class %v, want high", p.Name, got)
		case wantMiddle[p.Name] && got != Middle:
			t.Errorf("%s: class %v, want middle", p.Name, got)
		case !wantHigh[p.Name] && !wantMiddle[p.Name] && got != Low:
			t.Errorf("%s: class %v, want low", p.Name, got)
		}
	}
}

func TestClassifyAPKCBoundaries(t *testing.T) {
	if ClassifyAPKC(8.01) != High || ClassifyAPKC(8.0) != Middle ||
		ClassifyAPKC(4.01) != Middle || ClassifyAPKC(4.0) != Low {
		t.Fatal("intensity boundaries wrong (high > 8, middle > 4)")
	}
}

// TestReferenceIPCAlone: the IPC implied by hmmer's Table III reference
// values (IPC = APC/API, Eq. 1 of the paper).
func TestReferenceIPCAlone(t *testing.T) {
	p, _ := ByName("hmmer")
	got := p.TableAPKC / p.TableAPKI
	want := 5.29083 / 4.6008
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("hmmer reference IPC = %v, want %v", got, want)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good, _ := ByName("milc")
	bad := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.MemRefsPerKI = 0 },
		func(p *Profile) { p.MemRefsPerKI = 1500 },
		func(p *Profile) { p.ColdPerKI = p.MemRefsPerKI + 1 },
		func(p *Profile) { p.ColdPerKI = -1 },
		func(p *Profile) { p.WriteFrac = 1.5 },
		func(p *Profile) { p.SeqFrac = -0.1 },
		func(p *Profile) { p.BaseIPC = 0 },
		func(p *Profile) { p.MLP = 0 },
	}
	for i, f := range bad {
		p := good
		f(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	p, _ := ByName("milc")
	a, err := NewGenerator(p, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewGenerator(p, 2, 42)
	for i := 0; i < 10_000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("divergence at instr %d: %+v vs %+v", i, x, y)
		}
	}
}

func TestGeneratorSeedAndSlotChangeStream(t *testing.T) {
	p, _ := ByName("milc")
	base, _ := NewGenerator(p, 0, 42)
	otherSeed, _ := NewGenerator(p, 0, 43)
	otherSlot, _ := NewGenerator(p, 1, 42)
	sameBase, sameSeed, sameSlot := 0, 0, 0
	n := 5000
	for i := 0; i < n; i++ {
		x := base.Next()
		if x == otherSeed.Next() {
			sameSeed++
		}
		if x == otherSlot.Next() {
			sameSlot++
		}
		sameBase++
	}
	if sameSeed == n {
		t.Fatal("different seeds produced identical streams")
	}
	if sameSlot == n {
		t.Fatal("different app slots produced identical streams")
	}
}

func TestGeneratorMemRefRate(t *testing.T) {
	p, _ := ByName("soplex")
	g, _ := NewGenerator(p, 0, 1)
	n := 2_000_000
	var refs int
	for i := 0; i < n; i++ {
		if g.Next().Mem {
			refs++
		}
	}
	got := float64(refs) / float64(n) * 1000
	if math.Abs(got-p.MemRefsPerKI)/p.MemRefsPerKI > 0.03 {
		t.Fatalf("refs/KI = %v, want ~%v", got, p.MemRefsPerKI)
	}
}

func TestGeneratorWriteFraction(t *testing.T) {
	p, _ := ByName("lbm")
	g, _ := NewGenerator(p, 0, 1)
	var mem, writes int
	for i := 0; i < 2_000_000; i++ {
		in := g.Next()
		if in.Mem {
			mem++
			if in.Write {
				writes++
			}
		}
	}
	got := float64(writes) / float64(mem)
	if math.Abs(got-p.WriteFrac) > 0.02 {
		t.Fatalf("write fraction = %v, want ~%v", got, p.WriteFrac)
	}
}

func TestGeneratorAddressSpaceDisjointPerApp(t *testing.T) {
	p, _ := ByName("lbm")
	g0, _ := NewGenerator(p, 0, 1)
	g1, _ := NewGenerator(p, 1, 1)
	seen0 := map[uint64]bool{}
	for i := 0; i < 200_000; i++ {
		if in := g0.Next(); in.Mem {
			seen0[in.Addr>>appRegionShift] = true
		}
	}
	for i := 0; i < 200_000; i++ {
		if in := g1.Next(); in.Mem {
			if seen0[in.Addr>>appRegionShift] {
				t.Fatal("apps share an address region")
			}
		}
	}
}

func TestGeneratorColdRateApproximatesTarget(t *testing.T) {
	// Cold refs (addresses outside hot/mid regions) should appear at
	// ~ColdPerKI per kilo-instruction.
	p, _ := ByName("milc")
	g, _ := NewGenerator(p, 0, 9)
	n := 2_000_000
	var cold int
	for i := 0; i < n; i++ {
		in := g.Next()
		if !in.Mem {
			continue
		}
		off := in.Addr & ((1 << appRegionShift) - 1)
		if off >= seqBase || off >= randBase {
			cold++
		}
	}
	got := float64(cold) / float64(n) * 1000
	if math.Abs(got-p.ColdPerKI)/p.ColdPerKI > 0.05 {
		t.Fatalf("cold/KI = %v, want ~%v", got, p.ColdPerKI)
	}
}

func TestWarmupInstallsHotSet(t *testing.T) {
	p, _ := ByName("hmmer")
	g, _ := NewGenerator(p, 0, 5)
	lower := nullPort{}
	l2, err := cache.New(cache.L2(), lower)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := cache.New(cache.L1D(), l2)
	if err != nil {
		t.Fatal(err)
	}
	g.Warmup(l1, 200_000)
	// After warmup a fresh generator's warm refs should mostly hit.
	g2, _ := NewGenerator(p, 0, 5)
	var warmRefs int64
	for i := 0; i < 100_000; i++ {
		in := g2.Next()
		if !in.Mem {
			continue
		}
		off := in.Addr & ((1 << appRegionShift) - 1)
		if off < seqBase { // hot or mid region
			warmRefs++
			l1.Access(0, &mem.Request{Addr: in.Addr, Write: in.Write})
		}
	}
	hits := l1.Stats().Hits
	if float64(hits)/float64(warmRefs) < 0.85 {
		t.Fatalf("after warmup only %d/%d warm refs hit L1", hits, warmRefs)
	}
}

// nullPort accepts everything and completes instantly.
type nullPort struct{}

func (nullPort) Access(now int64, req *mem.Request) bool {
	if req.Done != nil {
		req.Done(now)
	}
	return true
}

func TestGeneratorSeqFraction(t *testing.T) {
	// Among cold refs, the sequential fraction must match the profile.
	p, _ := ByName("milc") // SeqFrac 0.70
	g, _ := NewGenerator(p, 0, 11)
	var cold, seq int
	prevSeq := uint64(0)
	for i := 0; i < 3_000_000; i++ {
		in := g.Next()
		if !in.Mem {
			continue
		}
		off := in.Addr & ((1 << appRegionShift) - 1)
		switch {
		case off >= randBase:
			cold++
		case off >= seqBase:
			cold++
			seq++
			// Sequential addresses advance by exactly one line.
			if prevSeq != 0 && in.Addr != prevSeq+lineBytes {
				t.Fatalf("seq stream jumped: %#x -> %#x", prevSeq, in.Addr)
			}
			prevSeq = in.Addr
		}
	}
	got := float64(seq) / float64(cold)
	if math.Abs(got-p.SeqFrac) > 0.03 {
		t.Fatalf("seq fraction = %v, want ~%v", got, p.SeqFrac)
	}
}

func TestGeneratorColdFlagMatchesRegion(t *testing.T) {
	// The Cold flag must be set exactly for refs to the cold regions.
	p, _ := ByName("soplex")
	g, _ := NewGenerator(p, 3, 5)
	for i := 0; i < 500_000; i++ {
		in := g.Next()
		if !in.Mem {
			continue
		}
		off := in.Addr & ((1 << appRegionShift) - 1)
		wantCold := off >= seqBase
		if in.Cold != wantCold {
			t.Fatalf("instr %d: Cold=%v but region offset %#x", i, in.Cold, off)
		}
	}
}
