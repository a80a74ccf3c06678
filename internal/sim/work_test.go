package sim

import (
	"strings"
	"testing"

	"bwpart/internal/workload"
)

// workKinds sums a KernelStats by component kind ("core", "l1", "l2",
// "ctrl"): ticks and pokes.
func workKinds(ks KernelStats) (ticks, pokes map[string]int64) {
	ticks, pokes = map[string]int64{}, map[string]int64{}
	for _, c := range ks.Components {
		kind, _, _ := strings.Cut(c.Name, ".")
		ticks[kind] += c.Ticks
		pokes[kind] += c.Pokes
	}
	return ticks, pokes
}

// TestKernelWorkCeilings bounds the wake kernel's work on two Table IV mixes
// over a fixed window: the ticks and the pokes of every component kind. The
// counts are deterministic; the ceilings sit about 2 % above the counts of
// the kernel that completes L1 hits in the core and lets cores sleep on
// their own clock, where core and L1 ticks are 3x lower than when each hit
// was an L1 event. A change that routes hits back through the L1's event
// queue, or stops the credit sleep, fails here, in go test, and not only in
// a benchmark run.
func TestKernelWorkCeilings(t *testing.T) {
	const window = 200_000
	ceilings := []struct {
		kind         string
		ticks, pokes int64
	}{
		{"core", 164_000, 8_900},
		{"l1", 28_800, 19_700},
		{"l2", 25_400, 13_200},
		{"ctrl", 7_800, 3_900},
	}
	ticks, pokes := map[string]int64{}, map[string]int64{}
	for _, name := range []string{"hetero-1", "homo-2"} {
		mix, err := workload.MixByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := New(fastCfg(), mustProfiles(t, mix.Benchmarks...))
		if err != nil {
			t.Fatal(err)
		}
		sys.Warmup()
		sys.Run(window)
		kt, kp := workKinds(sys.KernelStats())
		for k, n := range kt {
			ticks[k] += n
		}
		for k, n := range kp {
			pokes[k] += n
		}
	}
	for _, c := range ceilings {
		if ticks[c.kind] > c.ticks {
			t.Errorf("%s components ticked %d times, ceiling %d", c.kind, ticks[c.kind], c.ticks)
		}
		if pokes[c.kind] > c.pokes {
			t.Errorf("%s components were poked %d times, ceiling %d", c.kind, pokes[c.kind], c.pokes)
		}
	}
}
