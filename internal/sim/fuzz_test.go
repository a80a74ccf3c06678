package sim

import (
	"math/rand"
	"testing"

	"bwpart/internal/dram"
	"bwpart/internal/workload"
)

// FuzzKernelEquivalence is the native-fuzzing form of the kernel
// differential: every input names one system (application count and draw,
// scheduler, topology, controller queue bound) and one pattern of uneven Run
// slices, and the wake scheduler — straight, and sliced, which catches a
// sleeper the end-of-Run flush missed — must reproduce the naive loop bit
// for bit (see diffKernels). The
// variant bits reshape the system: fuzzRehit runs the cold re-hit stream of
// TestKernelSleepCoverage as application 0 instead of its profile,
// fuzzPhased a phased stream (parameter refreshes), fuzzOneL1MSHR gives
// every L1 one MSHR (reject stalls), fuzzPrefetch turns on next-line
// prefetching two lines deep in the private L2s, and fuzzHot runs the last
// application on a stream that only hits once warm (latency-bound spans). The seed corpus walks the
// scheduler x topology table of TestBusySpanKernelFuzz, so a plain `go test`
// already runs one case per cell, then adds the two sleeps on the core's own
// clock: all-low-BaseIPC mixes (seeds 12 and 24 draw four of milc,
// libquantum, soplex and omnetpp), which sleep short of dispatch credit, and
// re-hit streams, whose cold loads the L1 answers in place; and one input
// per way a core's run-ahead span stops (TestKernelRunAheadStops). `make
// fuzz` mutates from there for a bounded time.
func FuzzKernelEquivalence(f *testing.F) {
	r := rand.New(rand.NewSource(0xb5))
	for sched := range busySchedulers(2) {
		for _, shared := range []bool{false, true} {
			f.Add(r.Int63(), uint8(r.Intn(16)), uint8(sched), shared, uint8(r.Intn(24)), uint16(r.Intn(1<<16)), uint8(0))
		}
	}
	f.Add(int64(12), uint8(3), uint8(0), false, uint8(0), uint16(0x2c1b), uint8(0))
	f.Add(int64(24), uint8(3), uint8(1), true, uint8(5), uint16(0x0e57), uint8(0))
	f.Add(int64(35), uint8(2), uint8(2), false, uint8(0), uint16(0x13a4), fuzzRehit)
	f.Add(int64(66), uint8(3), uint8(3), true, uint8(6), uint16(0x7701), fuzzRehit)
	// The run-ahead stops. Slices 0x6830 are Runs of 1, 7 and 1041 cycles.
	f.Add(int64(101), uint8(1), uint8(0), false, uint8(0), uint16(0x6830), fuzzRehit)     // mid-cycle miss
	f.Add(int64(102), uint8(3), uint8(0), false, uint8(0), uint16(0x6830), fuzzOneL1MSHR) // L1 reject
	f.Add(int64(103), uint8(3), uint8(0), false, uint8(0), uint16(0x6830), uint8(0))      // controller completion, fill stall
	f.Add(int64(104), uint8(1), uint8(0), false, uint8(0), uint16(0x6830), fuzzPhased)    // parameter refresh
	f.Add(int64(105), uint8(3), uint8(1), true, uint8(0), uint16(0x6830), uint8(0))       // shared L2
	f.Add(int64(106), uint8(3), uint8(0), false, uint8(0), uint16(0x6830), fuzzPrefetch)  // L2 prefetch depth 2
	f.Add(int64(107), uint8(2), uint8(1), true, uint8(0), uint16(0x6830), fuzzOneL1MSHR|fuzzPhased)
	f.Add(int64(108), uint8(1), uint8(0), true, uint8(1), uint16(0x6830), fuzzHot) // latency horizon, bounded queue
	f.Fuzz(func(t *testing.T, seed int64, apps, sched uint8, shared bool, queueCap uint8, slices uint16, variant uint8) {
		n := 1 + int(apps)%16
		if shared && n > 8 {
			n = 8 // one way per application at least
		}
		r := rand.New(rand.NewSource(seed))
		names := make([]string, n)
		for i := range names {
			names[i] = busyFuzzPool[r.Intn(len(busyFuzzPool))]
		}
		scheds := busySchedulers(n)
		kc := kernelCase{
			names:  names,
			shared: shared,
			policy: dram.PagePolicy(r.Intn(2)),
			seed:   1 + r.Int63(),
			sched:  scheds[int(sched)%len(scheds)].mk,
			// Windows shrink with the application count to keep one input
			// cheap; the slices are a short, a medium and a long Run.
			settle:  int64(24_000 / n),
			measure: int64(72_000 / n),
			slices:  []int64{1 + int64(slices&7), 1 + int64(slices>>3&0x7f), 1 + 40*int64(slices>>10)},
		}
		if queueCap%4 != 0 {
			kc.queueCap = 2 + int(queueCap)%30
		}
		if variant&fuzzOneL1MSHR != 0 {
			kc.l1MSHRs = 1
		}
		if variant&fuzzPrefetch != 0 {
			kc.prefetch = 2
		}
		if variant&(fuzzRehit|fuzzPhased|fuzzHot) != 0 {
			kc.specs = func(t *testing.T) []AppSpec {
				specs := profileSpecs(t, names, kc.seed)
				if variant&fuzzPhased != 0 {
					specs[0] = phasedSpecs(t)[0]
				}
				if variant&fuzzRehit != 0 {
					specs[0] = rehitSpec(uint64(seed))
				}
				if variant&fuzzHot != 0 {
					specs[len(specs)-1] = hotSpec(uint64(seed))
				}
				return specs
			}
		}
		diffKernels(t, kc)
	})
}

// The variant bits of FuzzKernelEquivalence.
const (
	fuzzRehit uint8 = 1 << iota
	fuzzPhased
	fuzzOneL1MSHR
	fuzzPrefetch
	fuzzHot
)

// profileSpecs is what New builds for names under seed: one synthetic
// benchmark per core on its profile's ILP ceiling and MLP bound.
func profileSpecs(t *testing.T, names []string, seed int64) []AppSpec {
	t.Helper()
	specs := make([]AppSpec, len(names))
	for i, p := range mustProfiles(t, names...) {
		gen, err := workload.NewGenerator(p, i, seed)
		if err != nil {
			t.Fatal(err)
		}
		core := fastCfg().Core
		core.BaseIPC, core.MaxOutstandingLoads = p.BaseIPC, p.MLP
		specs[i] = AppSpec{Name: p.Name, Core: core, Stream: gen, Warm: gen.Warmup}
	}
	return specs
}
