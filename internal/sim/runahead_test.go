package sim

import (
	"strings"
	"testing"

	"bwpart/internal/cpu"
	"bwpart/internal/dram"
)

// coreRunAhead sums the run-ahead counters of every core in ks: the cycles
// run ahead, the pokes the cores received, and the spans by stop reason.
func coreRunAhead(ks KernelStats) (ahead, pokes int64, spans SpanStops) {
	for _, c := range ks.Components {
		if !strings.HasPrefix(c.Name, "core.") {
			continue
		}
		ahead += c.Ahead
		pokes += c.Pokes
		spans.Miss += c.Spans.Miss
		spans.Stall += c.Spans.Stall
		spans.Refresh += c.Spans.Refresh
		spans.Horizon += c.Spans.Horizon
		spans.RunEnd += c.Spans.RunEnd
	}
	return ahead, pokes, spans
}

// hotStream is a checkpointable stream whose every other instruction
// loads or stores one of 16 lines: once they are resident, its core only
// hits, and nothing below its L1 has an event to bound a run-ahead span.
type hotStream struct{ n, x uint64 }

func (s *hotStream) Next() cpu.Instr {
	s.n++
	if s.n%2 != 0 {
		return cpu.Instr{}
	}
	s.x = s.x*6364136223846793005 + 1442695040888963407
	return cpu.Instr{Mem: true, Write: s.x>>62 == 0, Addr: 1<<31 + (s.x>>33)%16*64}
}
func (s *hotStream) StreamState() any { return *s }
func (s *hotStream) RestoreStreamState(st any) error {
	*s = st.(hotStream)
	return nil
}
func (s *hotStream) ForkStream() cpu.Stream { cp := *s; return &cp }

// hotSpec is one application on a hotStream.
func hotSpec(x uint64) AppSpec {
	core := fastCfg().Core
	core.BaseIPC = 2
	return AppSpec{Name: "hot", Core: core, Stream: &hotStream{x: x}}
}

// runAheadCases are the differential cases of the cores' run-ahead, one per
// way a span can stop, each compared bit for bit with the naive loop by
// diffKernels (straight, and in 1-, 7- and 1024-cycle Run slices). reached names what the case must have exercised,
// from the naive observations and the straight wake drive's counters (the
// run-end case reads the sliced drive's). FuzzKernelEquivalence's seed
// corpus repeats them.
var runAheadCases = []struct {
	name    string
	kc      kernelCase
	reached func(t *testing.T, kc kernelCase, o kernelObs, ks KernelStats) bool
}{
	// Re-hit streams whose MLP bound (2) is below the L1's MSHR count, so
	// their L1s never refuse: every miss span ends in an open cycle the
	// kernel's tick finishes.
	{"mid-cycle-miss", kernelCase{specs: func(*testing.T) []AppSpec { return []AppSpec{rehitSpec(3), rehitSpec(4)} }},
		func(_ *testing.T, _ kernelCase, o kernelObs, ks KernelStats) bool {
			var rejects int64
			for _, l1 := range o.L1s {
				rejects += l1.Rejects
			}
			_, _, sp := coreRunAhead(ks)
			return rejects == 0 && sp.Miss > 0
		}},
	// One L1 MSHR: the pending access is refused until a fill frees it.
	{"l1-reject", kernelCase{names: []string{"lbm", "libquantum", "milc", "soplex"}, l1MSHRs: 1},
		func(_ *testing.T, _ kernelCase, o kernelObs, ks KernelStats) bool {
			_, _, sp := coreRunAhead(ks)
			return o.L1s[0].Rejects > 0 && o.Cores[0].RejectStallCycles > 0 && sp.Miss > 0
		}},
	// Close-page DRAM with misses in flight while the cores dispatch hits:
	// the controller's next completion sets the horizon, and the fill
	// arriving there wakes the core at the end of its span.
	{"ctrl-completion", kernelCase{names: []string{"lbm", "povray", "milc", "gromacs"}},
		func(_ *testing.T, _ kernelCase, _ kernelObs, ks KernelStats) bool {
			_, pokes, sp := coreRunAhead(ks)
			return sp.Horizon > 0 && pokes > 0
		}},
	// ROB-full and MLP stalls on outstanding misses.
	{"fill-stall", kernelCase{names: []string{"lbm", "libquantum", "soplex", "milc"}},
		func(_ *testing.T, _ kernelCase, o kernelObs, ks KernelStats) bool {
			_, _, sp := coreRunAhead(ks)
			return o.Cores[0].ROBFullCycles+o.Cores[0].MLPStallCycles > 0 && sp.Stall > 0
		}},
	// A phased stream: parameter refreshes stay kernel ticks.
	{"dynamic-refresh", kernelCase{specs: phasedSpecs, settle: 20_000, measure: 150_000},
		func(_ *testing.T, _ kernelCase, _ kernelObs, ks KernelStats) bool {
			_, _, sp := coreRunAhead(ks)
			return sp.Refresh > 0
		}},
	// Run slices whose ends cut spans short. (The name keeps the suffix of
	// the mid-window fork it also took: the suite's pinned test list keys on
	// full test names.)
	{"run-slices-fork", kernelCase{names: []string{"hmmer", "gromacs", "lbm", "povray"},
		settle: 15_000, measure: 50_000, slices: []int64{1, 7, 1024}},
		func(t *testing.T, kc kernelCase, _ kernelObs, _ KernelStats) bool {
			_, sliced := observe(t, wakeLoop, kc, true)
			_, _, sp := coreRunAhead(sliced)
			return sp.RunEnd > 0
		}},
	// A core that only hits, beside a memory-bound one in a shared L2 with
	// a bounded controller queue: while the controller, the shared L2 and
	// the hot core's L1 all sleep past the Run's end, now+1 plus the DRAM's
	// minimum latency is the horizon — the bound on a fill of a request
	// nobody holds yet — so spans stop there, not at the Run's end.
	{"latency-horizon", kernelCase{specs: func(t *testing.T) []AppSpec {
		return []AppSpec{hotSpec(5), profileSpecs(t, []string{"povray"}, 1)[0]}
	}, shared: true, queueCap: 3, settle: 5_000, measure: 60_000},
		func(t *testing.T, _ kernelCase, _ kernelObs, ks KernelStats) bool {
			dev, err := dram.NewDevice(fastCfg().DRAM)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range ks.Components {
				if c.Name == "core.0" {
					t.Logf("hot core: %d ticks, %d cycles ahead, spans %+v, minimum latency %d", c.Ticks, c.Ahead, c.Spans, dev.MinLatency())
					return c.Spans.Horizon > 0 && c.Ahead <= c.Ticks*dev.MinLatency()
				}
			}
			return false
		}},
	{"shared-l2", kernelCase{names: []string{"lbm", "gromacs", "milc", "povray"}, shared: true},
		func(_ *testing.T, _ kernelCase, _ kernelObs, ks KernelStats) bool {
			_, _, sp := coreRunAhead(ks)
			return sp.Horizon > 0 && sp.Miss > 0
		}},
	{"l2-prefetch", kernelCase{names: []string{"lbm", "libquantum", "gromacs", "povray"}, prefetch: 2},
		func(_ *testing.T, _ kernelCase, o kernelObs, ks KernelStats) bool {
			_, _, sp := coreRunAhead(ks)
			return o.L2s[0].Prefetches > 0 && sp.Horizon > 0
		}},
}

// TestKernelRunAheadStops runs runAheadCases: each must stay bit-identical
// to the naive loop, let the cores run ahead, and reach the stop it is
// about.
func TestKernelRunAheadStops(t *testing.T) {
	for _, tc := range runAheadCases {
		t.Run(tc.name, func(t *testing.T) {
			want, ks := diffKernels(t, tc.kc)
			if ahead, _, _ := coreRunAhead(ks); ahead == 0 {
				t.Errorf("no core ran ahead: %+v", ks)
			}
			if !tc.reached(t, tc.kc, want, ks) {
				_, _, sp := coreRunAhead(ks)
				t.Errorf("case never reached the stop it targets: spans %+v", sp)
			}
		})
	}
}
