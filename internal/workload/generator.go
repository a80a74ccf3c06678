package workload

import (
	"fmt"
	"math"
	"sync"

	"bwpart/internal/cpu"
	"bwpart/internal/xrand"
)

// Address-space layout per application. Each app gets a disjoint 1 TiB
// region so co-scheduled generators never alias in the private caches or in
// DRAM rows.
const (
	appRegionShift = 40
	hotBase        = 0x0000_0000
	hotBytes       = 8 << 10 // fits L1 comfortably
	midBase        = 0x0100_0000
	midBytes       = 96 << 10 // fits L2, misses L1 often
	seqBase        = 0x4000_0000
	seqBytes       = 2 << 30 // long streaming region
	randBase       = 0x1_0000_0000
	randBytes      = 512 << 20 // cold random region (never cache-resident)
	lineBytes      = 64
	// midShare is the fraction of warm (cache-hitting) references that go
	// to the L2-resident region rather than the L1-resident one.
	midShare = 0.15
)

// Generator produces the instruction stream for one application instance.
// It implements cpu.Stream deterministically from its seed. All mutable
// state is plain data (the RNG is an owned splitmix64), so a struct copy is
// an independent continuation of the stream and GeneratorState captures it
// exactly.
type Generator struct {
	p    Profile
	rng  xrand.RNG
	base uint64 // per-app address-space base

	gap      int // non-memory instructions remaining before the next ref
	memProb  float64
	coldProb float64
	// gapLogDenom is log(1-memProb), the constant denominator of drawGap's
	// geometric inversion; gaps is its bucket table (nil when memProb is 1).
	gapLogDenom float64
	gaps        *gapTable

	seqPtr uint64
}

// NewGenerator builds a deterministic generator for profile p, placed in
// application slot app (0-based core index), seeded by seed. The stream is
// derived by mixing (seed, app, benchmark name) through splitmix64, so
// adjacent seeds and co-scheduled copies get statistically independent
// streams.
func NewGenerator(p Profile, app int, seed int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		p:        p,
		rng:      *xrand.New(xrand.Mix(uint64(seed), uint64(app+1), xrand.HashString(p.Name))),
		base:     uint64(app) << appRegionShift,
		memProb:  p.MemRefsPerKI / 1000,
		coldProb: p.ColdPerKI / p.MemRefsPerKI,
	}
	g.gapLogDenom = math.Log(1 - g.memProb)
	if g.memProb < 1 {
		g.gaps = gapTableFor(g.gapLogDenom)
	}
	g.gap = g.drawGap()
	return g, nil
}

// drawGap samples the count of non-memory instructions before the next
// memory reference (geometric with mean 1/memProb - 1).
func (g *Generator) drawGap() int {
	if g.memProb >= 1 {
		return 0
	}
	// The 53 bits of a Float64 draw; most buckets of them invert to one gap.
	m := g.rng.Uint64() >> 11
	if gap := g.gaps[m>>(53-gapBucketBits)]; gap >= 0 {
		return int(gap)
	}
	u := float64(m) / (1 << 53)
	// Geometric via inversion; mean (1-p)/p.
	gap := int(math.Log(1-u) / g.gapLogDenom)
	if gap < 0 {
		gap = 0
	}
	return gap
}

// gapBucketBits is how many leading bits of drawGap's 53-bit uniform draw
// index its gapTable.
const gapBucketBits = 10

// gapTable holds, for each of the 1<<gapBucketBits equal slices of drawGap's
// uniform draw u, the gap every u in the slice inverts to, or -1 when the
// slice straddles a gap boundary (or its gap exceeds an int16) and the draw
// must be inverted through math.Log. Looking a draw up is thus
// bit-identical to inverting it: the table only answers where the
// inversion is provably constant.
type gapTable [1 << gapBucketBits]int16

// gapSlack widens each slice's inverted range, relatively and absolutely,
// far beyond the few ulps by which math.Log, the division and the
// table-building arithmetic may each miss the exact inversion.
const gapSlack = 1e-9

// newGapTable builds the table for the denominator log(1-memProb) < 0. The
// exact inversion log(1-u)/denom is increasing in u, so a slice's draws
// land between the inversions of its first and last u; when one gap covers
// both with gapSlack to spare, it covers every draw in between.
func newGapTable(denom float64) *gapTable {
	t := new(gapTable)
	for b := range t {
		lo := float64(b) / (1 << gapBucketBits)
		hi := float64(b+1)/(1<<gapBucketBits) - 1.0/(1<<53)
		vlo := math.Log1p(-lo) / denom
		vhi := math.Log1p(-hi) / denom
		g := max(math.Floor(vlo*(1-gapSlack)-gapSlack), 0)
		if g != max(math.Floor(vhi*(1+gapSlack)+gapSlack), 0) || g > math.MaxInt16 {
			t[b] = -1
			continue
		}
		t[b] = int16(g)
	}
	return t
}

// gapTables shares one gapTable per denominator across generators: the
// table is read-only once built.
var gapTables sync.Map // math.Float64bits(denom) -> *gapTable

func gapTableFor(denom float64) *gapTable {
	key := math.Float64bits(denom)
	if t, ok := gapTables.Load(key); ok {
		return t.(*gapTable)
	}
	t, _ := gapTables.LoadOrStore(key, newGapTable(denom))
	return t.(*gapTable)
}

// Next implements cpu.Stream.
func (g *Generator) Next() cpu.Instr {
	if g.gap > 0 {
		g.gap--
		return cpu.Instr{}
	}
	g.gap = g.drawGap()
	if g.rng.Float64() < g.coldProb {
		// LLC-bound reference: flagged Cold so the core's MLP bound
		// (dependence-limited miss parallelism) applies to it.
		return cpu.Instr{Mem: true, Cold: true, Write: g.isWrite(), Addr: g.coldAddr()}
	}
	return cpu.Instr{Mem: true, Write: g.isWrite(), Addr: g.warmAddr()}
}

// SkipGap implements cpu.GapStream: it consumes up to n of the non-memory
// instructions left before the next reference.
func (g *Generator) SkipGap(n int) int {
	n = min(n, g.gap)
	g.gap -= n
	return n
}

func (g *Generator) isWrite() bool {
	return g.rng.Float64() < g.p.WriteFrac
}

// coldAddr produces an address guaranteed to miss the private caches:
// either the next line of a long sequential stream or a random line in a
// region far larger than the L2.
func (g *Generator) coldAddr() uint64 {
	if g.rng.Float64() < g.p.SeqFrac {
		a := g.base + seqBase + g.seqPtr
		g.seqPtr += lineBytes
		if g.seqPtr >= seqBytes {
			g.seqPtr = 0
		}
		return a
	}
	line := uint64(g.rng.Int63n(randBytes / lineBytes))
	return g.base + randBase + line*lineBytes
}

// warmAddr produces a cache-resident address: mostly the small L1-resident
// hot set, sometimes the larger L2-resident set.
func (g *Generator) warmAddr() uint64 {
	if g.rng.Float64() < midShare {
		line := uint64(g.rng.Int63n(midBytes / lineBytes))
		return g.base + midBase + line*lineBytes
	}
	line := uint64(g.rng.Int63n(hotBytes / lineBytes))
	return g.base + hotBase + line*lineBytes
}

// GeneratorState is the complete mutable state of a Generator, as plain
// data suitable for checkpoints.
type GeneratorState struct {
	RNG    uint64
	Gap    int
	SeqPtr uint64
}

// StreamState captures the generator's mutable state.
func (g *Generator) StreamState() any {
	return GeneratorState{RNG: g.rng.State(), Gap: g.gap, SeqPtr: g.seqPtr}
}

// RestoreStreamState resumes the stream from a StreamState capture.
func (g *Generator) RestoreStreamState(st any) error {
	s, ok := st.(GeneratorState)
	if !ok {
		return fmt.Errorf("workload: cannot restore Generator from %T", st)
	}
	g.rng.Restore(s.RNG)
	g.gap = s.Gap
	g.seqPtr = s.SeqPtr
	return nil
}

// ForkStream returns an independent continuation of the stream: the copy
// and the original emit identical instructions from this point on.
func (g *Generator) ForkStream() cpu.Stream {
	cp := *g
	return &cp
}

// Toucher receives functional warmup traffic (caches implement it).
type Toucher interface {
	Touch(addr uint64, write bool)
}

// Warmup fast-forwards n instructions functionally, installing lines into
// the given cache (typically the core's L1, which propagates to L2). This
// mirrors the paper's atomic-mode fast-forward before timed simulation.
func (g *Generator) Warmup(t Toucher, n int64) {
	for i := int64(0); i < n; i++ {
		if k := g.SkipGap(int(min(n-i, math.MaxInt32))); k > 0 {
			i += int64(k) - 1
			continue
		}
		in := g.Next()
		t.Touch(in.Addr, in.Write)
	}
}
