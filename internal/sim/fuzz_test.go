package sim

import (
	"math/rand"
	"testing"

	"bwpart/internal/dram"
)

// FuzzKernelEquivalence is the native-fuzzing form of the kernel
// differential: every input names one system (application count and draw,
// scheduler, topology, controller queue bound) and one pattern of uneven Run
// slices, and the wake scheduler — straight, and sliced with a mid-window
// fork — must reproduce the naive loop bit for bit (see diffKernels). The
// seed corpus walks the scheduler x topology table of TestBusySpanKernelFuzz,
// so a plain `go test` already runs one case per cell; `make fuzz` mutates
// from there for a bounded time.
func FuzzKernelEquivalence(f *testing.F) {
	r := rand.New(rand.NewSource(0xb5))
	for sched := range busySchedulers(2) {
		for _, shared := range []bool{false, true} {
			f.Add(r.Int63(), uint8(r.Intn(16)), uint8(sched), shared, uint8(r.Intn(24)), uint16(r.Intn(1<<16)))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, apps, sched uint8, shared bool, queueCap uint8, slices uint16) {
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
		diffKernels(t, kc)
	})
}
