package workload

import (
	"math"
	"testing"

	"bwpart/internal/cpu"
	"bwpart/internal/xrand"
)

// invertGap is drawGap's inversion without the table.
func invertGap(m uint64, denom float64) int {
	gap := int(math.Log(1-float64(m)/(1<<53)) / denom)
	return max(gap, 0)
}

// TestGapTableMatchesInversion checks drawGap's bucket table against the
// math.Log inversion it stands in for, at both ends of every bucket it
// answers and at random draws, for every profile's reference rate and for
// rates at the edges of the valid range.
func TestGapTableMatchesInversion(t *testing.T) {
	var probs []float64
	for _, p := range All() {
		probs = append(probs, p.MemRefsPerKI/1000)
	}
	probs = append(probs, 0.001, 0.01, 0.5, 0.9, 0.999)
	const span = uint64(1) << (53 - gapBucketBits)
	rng := xrand.New(7)
	for _, p := range probs {
		denom := math.Log(1 - p)
		tab := newGapTable(denom)
		answered := 0
		for b, gap := range tab {
			if gap < 0 {
				continue
			}
			answered++
			lo := uint64(b) * span
			for _, m := range []uint64{lo, lo + 1, lo + span/2, lo + span - 2, lo + span - 1} {
				if got := invertGap(m, denom); got != int(gap) {
					t.Fatalf("p=%v bucket %d: table %d, inversion of %d gives %d", p, b, gap, m, got)
				}
			}
		}
		if p >= 0.3 && p <= 0.5 && answered < len(tab)*9/10 {
			t.Errorf("p=%v: table answers only %d of %d buckets", p, answered, len(tab))
		}
		for i := 0; i < 200000; i++ {
			m := rng.Uint64() >> 11
			if gap := tab[m>>(53-gapBucketBits)]; gap >= 0 && int(gap) != invertGap(m, denom) {
				t.Fatalf("p=%v draw %d: table %d, inversion %d", p, m, gap, invertGap(m, denom))
			}
		}
	}
}

// TestSkipGapMatchesNext checks cpu.GapStream on both generators: a stream
// consumed through SkipGap runs of random length, then Next, emits the
// same instructions as one consumed through Next alone, across phase
// switches too (short phases, so runs are cut at phase ends).
func TestSkipGapMatchesNext(t *testing.T) {
	milc, _ := ByName("milc")
	plain, err := NewGenerator(milc, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	phased, err := TwoPhase("lbm", "povray", 37, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []interface {
		cpu.GapStream
		ForkStream() cpu.Stream
	}{plain, phased} {
		ref := s.ForkStream()
		rng := xrand.New(11)
		for i := 0; i < 200_000; {
			n := s.SkipGap(int(rng.Int63n(10)))
			for ; n > 0; n-- {
				if in := ref.Next(); in.Mem {
					t.Fatalf("%T instruction %d: SkipGap skipped a memory reference", s, i)
				}
				i++
			}
			if got, want := s.Next(), ref.Next(); got != want {
				t.Fatalf("%T instruction %d: %+v after SkipGap, %+v from Next", s, i, got, want)
			}
			i++
		}
	}
}
