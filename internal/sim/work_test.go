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
// over a fixed window: the ticks and the pokes of every component kind, and
// the cycles on which anything ticked. The counts are deterministic; the
// ceilings sit about 2 % above the counts of the kernel that lets every
// core run its own cycles ahead to its L1's next possible fill, lets a
// component an access from above roused go back to sleep until its own next
// event, and lets a private L2 answer its L1's fills in place. Core ticks
// are 7x and ticked cycles 5x lower than when a core ticked on every cycle
// it dispatched. Cache and controller ticks are 1.5-2x lower than when
// every such access cost an empty tick. L2 ticks are 2.1x, L2 pokes 1.7x,
// core ticks 1.5x and L1 pokes 1.4x lower than when every L2 hit was an L2
// event, ticked and delivered by the L2 (41 588 ticked cycles, 33 274 core
// ticks, 16 023 L2 ticks, 12 622 L2 and 19 163 L1 pokes). A poke is a
// rouse before the component's own wake cycle: a fill reaching a core at
// the end of its run-ahead span, when the kernel would tick it anyway, is
// none. A change that stops the run-ahead absorbing ticks, routes L1 or L2
// hits back through the cache's event queue, stops the credit sleep or
// keeps accessed components awake, fails here, in go test, and not only in
// a benchmark run.
func TestKernelWorkCeilings(t *testing.T) {
	const window = 200_000
	const tickedCeiling = 33_300
	ceilings := []struct {
		kind         string
		ticks, pokes int64
	}{
		{"core", 22_700, 7_400},
		{"l1", 18_700, 13_900},
		{"l2", 7_700, 7_700},
		{"ctrl", 4_000, 3_900},
	}
	ticks, pokes := map[string]int64{}, map[string]int64{}
	var ticked int64
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
		ks := sys.KernelStats()
		ticked += ks.Ticked
		kt, kp := workKinds(ks)
		for k, n := range kt {
			ticks[k] += n
		}
		for k, n := range kp {
			pokes[k] += n
		}
	}
	t.Logf("ticked cycles %d; ticks %v; pokes %v", ticked, ticks, pokes)
	if ticked > tickedCeiling {
		t.Errorf("some component ticked on %d cycles, ceiling %d", ticked, tickedCeiling)
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
