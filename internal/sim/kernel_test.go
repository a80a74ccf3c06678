package sim

import (
	"fmt"
	"reflect"
	"testing"

	"bwpart/internal/cache"
	"bwpart/internal/cpu"
	"bwpart/internal/mem"
	"bwpart/internal/memctrl"
	"bwpart/internal/workload"
)

// traceRec is one off-chip access observation for kernel comparison.
type traceRec struct {
	cycle int64
	app   int
	addr  uint64
	write bool
}

// TestKernelsBitIdentical is the sim-level differential check: the wake
// scheduler must reproduce the naive loop's Result, off-chip traces and
// component counters bit for bit, in both topologies (see diffKernels for
// the drives).
func TestKernelsBitIdentical(t *testing.T) {
	for _, shared := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharedL2=%v", shared), func(t *testing.T) {
			diffKernels(t, kernelCase{
				names:  []string{"lbm", "gromacs", "milc", "povray"},
				shared: shared,
				settle: 40_000, measure: 120_000,
			})
		})
	}
}

// TestKernelsBitIdenticalSingleApp covers the alone-profiling path, where
// idle spans are longest and interference must stay exactly zero.
func TestKernelsBitIdenticalSingleApp(t *testing.T) {
	want, ks := diffKernels(t, kernelCase{names: []string{"omnetpp"}, settle: 40_000, measure: 120_000})
	if want.Res.Apps[0].InterferenceCycles != 0 {
		t.Errorf("alone app saw interference: %d", want.Res.Apps[0].InterferenceCycles)
	}
	if ks.Leapt == 0 {
		t.Errorf("alone run never leapt: %+v", ks)
	}
}

// interleaved returns a loop that hands its calls to the wake scheduler and
// the reference loop in turn, starting with the wake scheduler.
func interleaved() loop {
	calls := 0
	return func(s *System, cycles int64) {
		calls++
		if calls%2 == 1 {
			s.Run(cycles)
		} else {
			s.runNaive(cycles)
		}
	}
}

// TestKernelsInterleaved drives one system alternately with Run and the
// reference loop, in uneven slices, and demands the
// observations of a pure reference run, for every scheduler of
// busySchedulers on the private L2s, the private L2s prefetching two lines
// deep, and the shared L2. The reference loop ticks every component as it
// finds it, so a Run that returned with a component still marked asleep
// shows up here: the next access to it rouses it and integrates cycles the
// reference loop already ticked.
func TestKernelsInterleaved(t *testing.T) {
	names := []string{"lbm", "milc", "soplex", "povray"}
	topos := []struct {
		name     string
		shared   bool
		prefetch int
	}{{"private", false, 0}, {"private+prefetch2", false, 2}, {"shared", true, 0}}
	for _, topo := range topos {
		for _, sched := range busySchedulers(len(names)) {
			t.Run(topo.name+"/"+sched.name, func(t *testing.T) {
				kc := kernelCase{
					names: names, shared: topo.shared, prefetch: topo.prefetch, sched: sched.mk,
					settle: 15_000, measure: 45_000,
					slices: []int64{1, 7, 1024, 3, 5_000, 13, 777},
				}
				want, _ := observe(t, naiveLoop, kc, false)
				got, _ := observe(t, interleaved(), kc, true)
				diffObs(t, "interleaved", want, got)
			})
		}
	}
}

// TestKernelUnsafeSchedulerFallsBack ensures a scheduler of span class
// none still produces naive-identical results under the wake scheduler: the
// controller refuses to sleep while requests are queued, and every other
// component sleeps around it. WriteDrain wrapping STFM is such a scheduler:
// WriteDrain is idle-safe only over an idle-safe inner policy, and it is not
// head-only, so STFM's busy-safe class does not carry over.
func TestKernelUnsafeSchedulerFallsBack(t *testing.T) {
	_, ks := diffKernels(t, kernelCase{
		names: []string{"lbm", "soplex"},
		sched: func(t *testing.T) memctrl.Scheduler {
			stfm, err := memctrl.NewSTFM(2, 1.10)
			if err != nil {
				t.Fatal(err)
			}
			drain, err := memctrl.NewWriteDrain(stfm, 12, 4)
			if err != nil {
				t.Fatal(err)
			}
			return drain
		},
		settle: 40_000, measure: 120_000,
	})
	ctrl, rest := ks.Components[0], ks.Components[1:]
	if ctrl.Ticks < ks.Cycles/2 {
		t.Errorf("controller under an unsafe scheduler ticked only %d of %d cycles", ctrl.Ticks, ks.Cycles)
	}
	for _, c := range rest {
		if c.Slept == 0 {
			t.Errorf("%s never slept beside the always-on controller", c.Name)
		}
	}
}

// phasedSpecs is a single phased application (memory-bound lbm phases
// alternating with compute-bound povray phases).
func phasedSpecs(t *testing.T) []AppSpec {
	lbm, _ := workload.ByName("lbm")
	povray, _ := workload.ByName("povray")
	gen, err := workload.NewPhasedGenerator([]workload.Phase{
		{Profile: lbm, Instructions: 30_000},
		{Profile: povray, Instructions: 30_000},
	}, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	core := fastCfg().Core
	core.BaseIPC = lbm.BaseIPC
	core.MaxOutstandingLoads = lbm.MLP
	return []AppSpec{{Name: "phased", Core: core, Stream: gen}}
}

// TestKernelPhasedWorkload pins the dynamic-stream path: a stalled core
// never sleeps across its parameter-refresh boundary, so a refresh landing
// inside a sleep wakes it and phased workloads stay bit-identical too.
func TestKernelPhasedWorkload(t *testing.T) {
	_, ks := diffKernels(t, kernelCase{specs: phasedSpecs, settle: 20_000, measure: 150_000})
	if core := ks.Components[len(ks.Components)-1]; core.Slept == 0 {
		t.Errorf("phased core never slept: %+v", core)
	}
}

// aliasStream is a checkpointable stream of cold loads drawn at random from
// 32 lines that share one set in every cache level (so they always miss),
// with no per-application offset: applications running it collide on the
// same lines, and in a shared L2 one application's miss is every so often
// the line another's refused access is waiting to merge into.
type aliasStream struct{ n, x uint64 }

func (a *aliasStream) Next() cpu.Instr {
	a.n++
	if a.n%8 != 0 {
		return cpu.Instr{}
	}
	a.x = a.x*6364136223846793005 + 1442695040888963407
	return cpu.Instr{Mem: true, Cold: true, Addr: 1<<32 + (a.x>>33)%32*512*64}
}
func (a *aliasStream) StreamState() any { return *a }
func (a *aliasStream) RestoreStreamState(st any) error {
	*a = st.(aliasStream)
	return nil
}
func (a *aliasStream) ForkStream() cpu.Stream { cp := *a; return &cp }

// aliasSpecs is three applications on differently seeded aliasStreams.
func aliasSpecs(*testing.T) []AppSpec {
	core := fastCfg().Core
	core.BaseIPC, core.MaxOutstandingLoads = 2, 8
	specs := make([]AppSpec, 3)
	for i := range specs {
		specs[i] = AppSpec{Name: fmt.Sprintf("alias%d", i), Core: core, Stream: &aliasStream{x: uint64(i)}}
	}
	return specs
}

// rehitStream is a checkpointable stream whose every fourth instruction is
// a cold load. About half of them re-read one of 16 lines, which stay
// resident in the L1 after their first miss, so the L1 answers those cold
// loads in place and the core holds their MLP slots until the answer is
// ready; the rest go to random lines of a region far larger than the L2.
type rehitStream struct{ n, x uint64 }

func (s *rehitStream) Next() cpu.Instr {
	s.n++
	if s.n%4 != 0 {
		return cpu.Instr{}
	}
	s.x = s.x*6364136223846793005 + 1442695040888963407
	if s.x>>63 == 0 {
		return cpu.Instr{Mem: true, Cold: true, Addr: 1<<30 + (s.x>>33)%16*64}
	}
	return cpu.Instr{Mem: true, Cold: true, Addr: 1<<34 + (s.x>>33)%(1<<20)*64}
}
func (s *rehitStream) StreamState() any { return *s }
func (s *rehitStream) RestoreStreamState(st any) error {
	*s = st.(rehitStream)
	return nil
}
func (s *rehitStream) ForkStream() cpu.Stream { cp := *s; return &cp }

// rehitSpec is one application on a rehitStream with a tight MLP bound.
func rehitSpec(x uint64) AppSpec {
	core := fastCfg().Core
	core.BaseIPC, core.MaxOutstandingLoads = 2, 2
	return AppSpec{Name: fmt.Sprintf("rehit%d", x), Core: core, Stream: &rehitStream{x: x}}
}

// coreSleptUnstalled counts the cores that slept through more than a tenth
// of the window beyond their dispatch-stall cycles, which only the credit
// span (a core short of dispatch credit, not stalled) can account for. It
// needs a window that is all measurement (settle 1).
func coreSleptUnstalled(o kernelObs, ks KernelStats) int64 {
	var n int64
	for i, c := range o.Cores {
		name, stalled := fmt.Sprintf("core.%d", i), c.ROBFullCycles+c.MLPStallCycles+c.RejectStallCycles
		for _, k := range ks.Components {
			if k.Name == name && k.Slept-stalled > c.Cycles/10 {
				n++
			}
		}
	}
	return n
}

// TestKernelSleepCoverage drives the configurations the old all-or-nothing
// span sweep never skipped in but per-component sleeping does: reject-
// coupled stalls in both directions (shared-L2 MSHR starvation, a bounded
// controller queue leaving L2 sends deferred while the controller sleeps),
// prefetching L2s, 8- and 16-application systems, cores sleeping on their
// own clock (short of dispatch credit), and cold loads the L1 answers in
// place (their MLP slots released at the ready cycle).
func TestKernelSleepCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("differential runs are slow")
	}
	repeat := func(n int, names ...string) []string {
		var out []string
		for len(out) < n {
			out = append(out, names...)
		}
		return out[:n]
	}
	for _, tc := range []struct {
		name string
		kc   kernelCase
		// reached names the counter that must be non-zero for the case to
		// have exercised what it is about (nil = no such requirement); ks
		// is the straight wake drive's.
		reached func(o kernelObs, ks KernelStats) int64
	}{
		{"shared-mshr-starved", kernelCase{names: []string{"lbm", "libquantum", "milc", "povray"}, shared: true, l2MSHRs: 2},
			func(o kernelObs, _ KernelStats) int64 { return o.L2s[0].Rejects + o.L2s[1].Rejects }},
		{"shared-cross-app-merge", kernelCase{specs: aliasSpecs, shared: true, l2MSHRs: 2, settle: 5_000, measure: 600_000},
			func(o kernelObs, _ KernelStats) int64 { return min(o.L2s[0].Rejects, o.L2s[1].MSHRMerges) }},
		{"private-mshr-starved", kernelCase{names: []string{"lbm", "libquantum", "milc", "povray"}, l2MSHRs: 2},
			func(o kernelObs, _ KernelStats) int64 { return o.L2s[0].Rejects + o.L1s[0].Rejects }},
		{"queuecap-deferred", kernelCase{names: []string{"lbm", "libquantum", "milc", "soplex"}, queueCap: 3},
			func(o kernelObs, _ KernelStats) int64 {
				return o.Cores[0].RejectStallCycles + o.L1s[0].Rejects + o.L2s[0].Rejects
			}},
		{"queuecap-shared", kernelCase{names: []string{"lbm", "libquantum", "milc", "soplex"}, queueCap: 3, shared: true}, nil},
		{"l2-prefetch", kernelCase{names: []string{"lbm", "libquantum", "gromacs", "povray"}, prefetch: 2},
			func(o kernelObs, _ KernelStats) int64 { return o.L2s[0].Prefetches }},
		{"8-apps", kernelCase{names: repeat(8, "lbm", "povray", "milc", "gromacs"), settle: 8_000, measure: 24_000}, nil},
		{"16-apps", kernelCase{names: repeat(16, "lbm", "povray", "milc", "gromacs"), settle: 5_000, measure: 15_000}, nil},
		{"8-apps-shared", kernelCase{names: repeat(8, "soplex", "h264ref", "lbm"), shared: true, settle: 8_000, measure: 24_000}, nil},
		{"low-ipc-credit", kernelCase{names: []string{"milc", "soplex", "omnetpp", "libquantum"}, settle: 1, measure: 60_000},
			coreSleptUnstalled},
		{"cold-rehit", kernelCase{specs: func(*testing.T) []AppSpec { return []AppSpec{rehitSpec(1), rehitSpec(2)} }},
			func(o kernelObs, _ KernelStats) int64 { return min(o.L1s[0].Hits, o.Cores[0].MLPStallCycles) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, ks := diffKernels(t, tc.kc)
			if tc.reached != nil && tc.reached(want, ks) == 0 {
				t.Errorf("case never reached the behaviour it targets")
			}
			var slept int64
			for _, c := range ks.Components {
				slept += c.Slept
			}
			if slept == 0 {
				t.Errorf("no component ever slept: %+v", ks)
			}
		})
	}
}

// boundaryStub is the scripted neighbour of TestWakeBoundaryRule: a
// component that never sleeps and runs script at every cycle.
type boundaryStub struct {
	script func(now int64)
}

func (b *boundaryStub) Tick(now int64)                     { b.script(now) }
func (b *boundaryStub) NextEventCycle(int64) (int64, bool) { return 0, false }
func (b *boundaryStub) SkipSpan(int64, int64)              {}
func (b *boundaryStub) SetWaker(*mem.Waker)                {}

// boundaryLower is the stub lower level: it accepts accesses before
// refuseFrom and refuses (and counts) them afterwards, in person or through
// the closed-form RejectAccounter — the one per-cycle effect a sleeping
// cache with a deferred send integrates.
type boundaryLower struct {
	refuseFrom int64
	accepted   []*mem.Request
	rejects    int64
}

func (l *boundaryLower) Access(now int64, req *mem.Request) bool {
	if now < l.refuseFrom {
		l.accepted = append(l.accepted, req)
		return true
	}
	l.rejects++
	return false
}

func (l *boundaryLower) AccountRejects(_ int, n int64) { l.rejects += n }

// TestWakeBoundaryRule pins the inclusive/exclusive rule of rouse on a real
// cache between a stub lower port (ticks before it) and a stub upper
// requester (ticks after it). The cache sleeps with a refused send
// deferred, so each slept cycle is one refusal accounted at the lower
// level. At cycle poke it is reached either from above (an Access — the
// cache already slept through its turn, so it must have integrated through
// poke inclusive) or from below (a fill callback — its turn is still to
// come, so it must have integrated up to poke exclusive and tick in the
// same cycle). What the upper stub sees at the end of cycle poke, and both
// systems' state after cycle poke+1, must equal the naive loop's.
func TestWakeBoundaryRule(t *testing.T) {
	const poke = 40
	type seen struct {
		Rejects int64
		Cache   cache.Stats
		Dones   int
	}
	drive := func(run loop, fromBelow bool) (atPoke, after seen, ks KernelStats) {
		lower := &boundaryLower{refuseFrom: 8}
		cfg := cache.L2()
		cfg.HitLatency = 2
		c, err := cache.New(cfg, lower)
		if err != nil {
			t.Fatal(err)
		}
		var dones int
		load := func(addr uint64) *mem.Request {
			return &mem.Request{Addr: addr, Done: func(int64) { dones++ }}
		}
		look := func() seen { return seen{lower.rejects, c.Stats(), dones} }
		s := &System{}
		s.addComponent("lower", &boundaryStub{script: func(now int64) {
			if fromBelow && now == poke {
				lower.accepted[0].Done(now) // the fill of the first miss returns
			}
		}}, nil)
		s.addComponent("cache", c, nil)
		s.addComponent("upper", &boundaryStub{script: func(now int64) {
			switch {
			case now == 0:
				c.Access(now, load(0x1000)) // sent at 2, accepted
			case now == 7:
				c.Access(now, load(0x2000)) // sent at 9, refused: deferred
			case !fromBelow && now == poke:
				c.Access(now, load(0x3000))
			}
			if now == poke {
				atPoke = look()
			}
		}}, nil)
		run(s, poke+2)
		return atPoke, look(), s.KernelStats()
	}
	for _, fromBelow := range []bool{false, true} {
		t.Run(fmt.Sprintf("fromBelow=%v", fromBelow), func(t *testing.T) {
			wantAt, wantAfter, _ := drive(naiveLoop, fromBelow)
			gotAt, gotAfter, ks := drive(wakeLoop, fromBelow)
			if !reflect.DeepEqual(wantAt, gotAt) {
				t.Errorf("end of cycle %d:\nnaive %+v\nwake  %+v", poke, wantAt, gotAt)
			}
			if !reflect.DeepEqual(wantAfter, gotAfter) {
				t.Errorf("after cycle %d:\nnaive %+v\nwake  %+v", poke+1, wantAfter, gotAfter)
			}
			// Refused twice in person at cycle 9 (the send, then the same
			// Tick's deferred retry), then once per cycle.
			if want := int64(poke - 9 + 2); wantAt.Rejects != want {
				t.Errorf("naive loop counted %d refusals by the end of cycle %d, want %d", wantAt.Rejects, poke, want)
			}
			if c := ks.Components[1]; c.Slept < poke-12 || c.Pokes == 0 {
				t.Errorf("cache was not asleep when poked: %+v", c)
			}
			checkKernelStats(t, ks, poke+2)
		})
	}
}
