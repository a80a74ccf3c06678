// Package sim assembles the full simulated CMP: N out-of-order cores, each
// with private L1/L2 caches and a synthetic workload generator, sharing one
// memory controller and DRAM device. It is the stand-in for the paper's
// GEM5 + DRAMSim2 testbed and follows the same methodology: functional
// warmup, an APC_alone profiling phase, then a timed measurement window.
package sim

import (
	"errors"
	"fmt"
	"slices"

	"bwpart/internal/cache"
	"bwpart/internal/cpu"
	"bwpart/internal/dram"
	"bwpart/internal/mem"
	"bwpart/internal/memctrl"
	"bwpart/internal/workload"
)

// component is the tickable simulation unit System.Run drives: cores,
// caches, and the memory controller. The discrete-event contract:
// NextEventCycle(now) reports, after the component ticked at cycle now,
// whether its near future is a skippable span — every Tick strictly before
// the returned cycle would have only integrable per-cycle effects (stat
// accrual, stall counters, guaranteed-failing retries), no state change
// that other components could observe — and the next cycle (> now) at which
// it must tick again; math.MaxInt64 means "only external events wake me".
// A span is skippable both when the component is idle and when it is busy
// but deterministic until a known cycle (a core stalled on its ROB-head
// memory op, a cache waiting only on outstanding fills, the controller
// waiting for bank-ready/bus-free). The claim holds until another component
// reaches in: SkipSpan(from, to) applies any prefix [from, to) of the span
// in closed form, and the component announces every outside input through
// its mem.Waker (SetWaker) before acting on it, so the kernel can integrate
// the cycles slept so far and resume ticking. A sleeper's state therefore
// changes only at its own reported event cycle or at a poke; the kernel
// ticks it at the first and integrates exactly up to the second, which is
// what keeps results bit-identical to naive ticking.
type component interface {
	Tick(now int64)
	NextEventCycle(now int64) (next int64, skippable bool)
	SkipSpan(from, to int64)
	SetWaker(w *mem.Waker)
}

// slot is the kernel's record of one component. Between sweeps every cycle
// before from has been ticked or integrated, and the component next ticks
// at its wake cycle (System.wakes, kept dense because the sweep reads every
// entry every cycle); from <= wake, and they differ exactly while it sleeps.
type slot struct {
	c    component
	w    *mem.Waker // c's handle: Run puts it to sleep, the tests' reference loop never does
	from int64
	// core is c as a core, nil for the other components. Its run-ahead
	// horizon is bounded below it by fill, its L1, whose next possible fill
	// does in the private topology; under SharedL2 (fill nil) by the wakes
	// of the slots l1 and l2, its L1 and the shared L2.
	core   *cpu.Core
	fill   *cache.Cache
	l1, l2 int
	// lower is the slot c sends its accesses to, -1 for the controller.
	lower int
	ComponentKernelStats
}

// Config describes a full system.
type Config struct {
	DRAM dram.Config
	L1   cache.Config
	L2   cache.Config
	// Core supplies Width and ROBSize; BaseIPC and MaxOutstandingLoads are
	// overridden per application from its workload profile.
	Core cpu.Config
	// QueueCap bounds the memory controller queue (0 = unbounded; per-app
	// L2 MSHRs already bound outstanding traffic).
	QueueCap int
	// SharedL2 switches the topology from private L2s to one way-partitioned
	// shared L2 (the paper's footnote-1 CMP variant). L2WayQuota gives each
	// app's way allocation; nil splits the ways evenly. With a shared L2 the
	// Config.L2 size describes the single shared cache.
	SharedL2   bool
	L2WayQuota []int
	// L2PrefetchDepth enables next-line prefetching in the private L2s
	// (ignored with SharedL2). Prefetching converts latency into extra
	// bandwidth demand — useful for studying partitioning under pressure.
	L2PrefetchDepth int
	// WarmupInstructions is the per-app functional fast-forward before any
	// timed phase (the paper uses 500M in atomic mode; scaled down here).
	WarmupInstructions int64
	Seed               int64
	// Power overrides the DRAM power parameters used for the window energy
	// estimate in Results (nil = dram.DefaultPowerConfig()).
	Power *dram.PowerConfig
}

// DefaultConfig returns the paper's baseline system (Table II): four-core
// class CMP parameters with DDR2-400.
func DefaultConfig() Config {
	return Config{
		DRAM:               dram.DDR2_400(),
		L1:                 cache.L1D(),
		L2:                 cache.L2(),
		Core:               cpu.DefaultConfig(),
		QueueCap:           0,
		WarmupInstructions: 200_000,
		Seed:               1,
	}
}

// System is one assembled CMP running a fixed set of applications.
type System struct {
	cfg      Config
	specs    []AppSpec
	dev      *dram.Device
	ctrl     *memctrl.Controller
	l1s      []*cache.Cache
	l2s      []*cache.Cache     // private-L2 topology (nil entries when shared)
	sharedL2 *cache.SharedCache // shared-L2 topology (nil when private)
	cores    []*cpu.Core
	// slots is every tickable unit in the exact per-cycle order the
	// topology requires (controller first, then caches bottom-up, then the
	// core, per application); Run drives this one list for both topologies.
	slots []slot
	wakes []int64
	now   int64
	// cur is the slot the wake scheduler is ticking; poked records that a
	// slot already passed this cycle was roused and is due next cycle,
	// unless it is in repoll: cur's lower level, roused by cur's access,
	// whose wake settle decides again once the access is done.
	cur    int
	poked  bool
	repoll []int
	// ticked and leapt count the cycles on which some, resp. no, component
	// ticked (KernelStats).
	ticked, leapt int64
	// minLat is the DRAM's fewest cycles from issue to completion, the
	// run-ahead horizon's bound on a request the controller has yet to issue.
	minLat int64
	// mark is the reading the measurement window starts from; win is the
	// buffer Results and APIsInto reuse for the window.
	mark *Counters
	win  Counters
	// caches lists every cache in construction order — the shared L2 first
	// when present, then each app's L2 and L1 — which is the order a
	// Checkpoint keeps their states in.
	caches []snapCache
}

// New builds a system running one synthetic benchmark per core, with the
// FCFS (No_partitioning) scheduler; callers select other policies via
// SetScheduler or the helpers below. It is FromCheckpoint without a
// checkpoint.
func New(cfg Config, profs []workload.Profile) (*System, error) {
	return FromCheckpoint(cfg, profs, nil)
}

// FromCheckpoint builds the system New builds from cfg and profs, with cp
// non-nil warmed to cp (and not run). It builds nothing from a checkpoint of
// another app count, L2 topology or cache geometry. cp is only read, so it
// builds any number of independent systems, concurrently too.
func FromCheckpoint(cfg Config, profs []workload.Profile, cp *Checkpoint) (*System, error) {
	if len(profs) == 0 {
		return nil, errors.New("sim: no applications")
	}
	specs := make([]AppSpec, len(profs))
	for i, p := range profs {
		gen, err := workload.NewGenerator(p, i, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("sim: app %d generator: %w", i, err)
		}
		coreCfg := cfg.Core
		coreCfg.BaseIPC = p.BaseIPC
		coreCfg.MaxOutstandingLoads = p.MLP
		specs[i] = AppSpec{
			Name:   p.Name,
			Core:   coreCfg,
			Stream: gen,
			Warm:   gen.Warmup,
		}
	}
	return build(cfg, specs, cp)
}

// NumApps returns the number of applications (= cores).
func (s *System) NumApps() int { return len(s.cores) }

// Controller exposes the memory controller (to install schedulers).
func (s *System) Controller() *memctrl.Controller { return s.ctrl }

// Now returns the current cycle.
func (s *System) Now() int64 { return s.now }

// Warmup fast-forwards every application functionally, installing its
// working set into its caches without advancing simulated time.
func (s *System) Warmup() {
	for i, spec := range s.specs {
		if spec.Warm != nil {
			spec.Warm(s.l1s[i], s.cfg.WarmupInstructions)
		}
	}
}

// Run advances the system by the given number of cycles. It is a wake
// scheduler over the component list: after a component ticks, its
// NextEventCycle decides whether it sleeps until its own next event; a
// sleeping component is not ticked, and its slept cycles are integrated
// lazily by one SkipSpan when another component pokes it or its wake cycle
// arrives; a core additionally runs its own cycles ahead after each tick, up
// to its memory hierarchy's next event (runAhead). Simulated time advances
// by one cycle while anything is due and jumps to the minimum wake cycle
// otherwise. Its results are bit-identical to ticking every component every
// cycle in the same order — the reference loop this package's differential
// and fuzz tests hold it to (DESIGN.md §7). Every sleeper is flushed and
// marked awake before Run returns: Results, ResetStats, SetScheduler and
// the epoch loops between Run calls always see canonical component state.
func (s *System) Run(cycles int64) {
	end := s.now + cycles
	for i := range s.slots {
		s.wakes[i], s.slots[i].from = s.now, s.now
	}
	for s.now < end {
		now := s.now
		next := end
		s.poked = false
		for i, wake := range s.wakes {
			if wake > now {
				if wake < next {
					next = wake
				}
				continue
			}
			sl := &s.slots[i]
			if sl.from < now {
				sl.integrate(now)
			}
			s.cur = i
			sl.c.Tick(now)
			if len(s.repoll) > 0 {
				next = s.settle(now, next)
			}
			var wake int64
			var ok bool
			if sl.core != nil {
				wake, ok = s.runAhead(sl, now, end)
			} else {
				wake, ok = sl.c.NextEventCycle(now)
			}
			sl.Ticks++
			if ok && wake > now+1 {
				sl.w.SetAsleep(true)
			} else {
				wake = now + 1
			}
			s.wakes[i], sl.from = wake, now+1
			if wake < next {
				next = wake
			}
		}
		if s.poked {
			next = now + 1
		}
		s.ticked++
		s.leapt += next - now - 1
		s.now = next
	}
	for i := range s.slots {
		// A slot ticked at end-1 with its wake past end has nothing to
		// integrate, but must not stay marked asleep either.
		sl := &s.slots[i]
		sl.w.SetAsleep(false)
		if sl.from < end {
			sl.integrate(end)
		}
	}
}

// runAhead lets the core of slot sl, just ticked at now, execute its own
// cycles up to its horizon (cpu.Core.RunAhead): the earliest of the
// controller's wake, its L1's next possible fill, now+1 plus the DRAM's
// minimum latency, and the end of the Run. A fill reaches an L1 either
// inside a tick of the controller — completion, L2 fill, L1 fill and the
// core's Done run synchronously — or, answered in place by a private L2, in
// the L1's own tick at the answer's cycle, which is never earlier than the
// L1's next pending send plus the L2's hit latency (cache.Cache.NextFill).
// Nothing else reaches the core or its L1's tags, except through a request
// the controller issues later: completions it already holds are never
// earlier than its wake, and one it issues at a tick it is poked into, from
// now+1 on, completes no sooner than the minimum latency. Under SharedL2,
// which answers nothing in place, the L1's next fill is bounded by the
// wakes of the L1 and the shared L2 instead. The horizon is read after the
// core's Tick, which may have sent a miss to its L1. It returns the core's
// NextEventCycle answer, which RunAhead gives as the span leaves the core.
func (s *System) runAhead(sl *slot, now, end int64) (int64, bool) {
	var next int64 // the earliest cycle a fill can reach the core's L1 from below
	if sl.fill != nil {
		next = sl.fill.NextFill(s.cfg.L2.HitLatency)
	} else {
		next = min(s.wakes[sl.l2], s.wakes[sl.l1])
	}
	h := min(s.wakes[0], next, now+1+s.minLat, end)
	n, why, wake, ok := sl.core.RunAhead(h)
	sl.Ahead += n
	switch {
	case why == cpu.StopMiss:
		sl.Spans.Miss++
	case why == cpu.StopStall:
		sl.Spans.Stall++
	case why == cpu.StopRefresh:
		sl.Spans.Refresh++
	case h == end:
		sl.Spans.RunEnd++
	default:
		sl.Spans.Horizon++
	}
	return wake, ok
}

// settle decides again, for every slot in repoll, what rouse decided
// before the access that roused it: the slot's turn this cycle has passed
// and is integrated, so its state is what a Tick at now followed by that
// access leaves, and its NextEventCycle(now) says whether it may sleep
// again — a cache sent a miss wakes at the miss's send, not at now+1. Only
// an access from the component being ticked to the level below it is
// settled: a wake from below (a freed register or queue slot) changes what
// the slot's next retry meets, which its own NextEventCycle cannot see. It
// returns next lowered to the slots' new wakes.
func (s *System) settle(now, next int64) int64 {
	for _, i := range s.repoll {
		sl := &s.slots[i]
		wake, ok := sl.c.NextEventCycle(now)
		if ok && wake > now+1 {
			sl.w.SetAsleep(true)
		} else {
			wake = now + 1
		}
		s.wakes[i] = wake
		next = min(next, wake)
	}
	s.repoll = s.repoll[:0]
	return next
}

// integrate ends the component's sleep: it applies the slept cycles
// [from, upto) in closed form and marks the handle awake.
func (sl *slot) integrate(upto int64) {
	sl.w.SetAsleep(false)
	sl.c.SkipSpan(sl.from, upto)
	sl.Slept += upto - sl.from
	sl.from = upto
}

// rouse is slot i's Waker callback: another component is about to act on a
// sleeping component. The tick order fixes how far the sleeper has come. A
// slot after the one being ticked has not had its turn this cycle: it
// integrates up to now exclusive and ticks in this sweep. A slot before it
// already slept through its turn: it integrates through now inclusive and
// is due next cycle, until settle, once the access is done, finds out
// whether it may sleep again.
func (s *System) rouse(i int) {
	sl := &s.slots[i]
	upto := s.now
	if i < s.cur && s.wakes[i] > upto+1 {
		if i == s.slots[s.cur].lower {
			s.repoll = append(s.repoll, i)
		} else {
			s.poked = true
		}
	}
	if i < s.cur {
		upto++
	}
	if s.wakes[i] > upto {
		// A rouse at the cycle the component was due anyway — a core
		// whose sleep was only its run-ahead span, say — wakes nothing.
		sl.Pokes++
	}
	if sl.from < upto {
		sl.integrate(upto)
	}
	s.wakes[i] = upto
}

// ComponentKernelStats counts how the kernel spent one component's cycles:
// ticked, or slept (integrated in closed form), plus how many times another
// component roused it from sleep before its own wake cycle. Ticks + Slept
// equals the cycles Run has advanced, for every component. Ahead and Spans
// are a core's run-ahead (zero for other components, and under the
// reference loop of this package's tests, which ticks every component every
// cycle): the cycles it ran past its ticks inside their horizons, part of
// Slept, and its ticks counted by what ended the span each one started.
type ComponentKernelStats struct {
	Name                string // "ctrl", "l2", "l2.<app>", "l1.<app>", "core.<app>"
	Ticks, Slept, Pokes int64
	Ahead               int64
	Spans               SpanStops
}

// SpanStops counts a core's run-ahead spans by what stopped them: an access
// that is not a resident L1 hit or an L1 reject (Miss), a stall only a fill
// can end (Stall), a DynamicStream parameter refresh (Refresh), the horizon
// set by the controller, the L1's next fill or the DRAM latency (Horizon),
// and the end of the Run call (RunEnd).
type SpanStops struct {
	Miss, Stall, Refresh, Horizon, RunEnd int64
}

// KernelStats reports the kernel's work since the system was built: Cycles
// simulated, split into Ticked (at least one component ticked) and Leapt
// (none did), and the per-component breakdown in tick order. They are
// diagnostics of the simulator, not of the simulated machine, so they are
// not part of a measurement window (Counters).
type KernelStats struct {
	Cycles, Ticked, Leapt int64
	Components            []ComponentKernelStats
}

// KernelStats snapshots the kernel counters.
func (s *System) KernelStats() KernelStats {
	ks := KernelStats{Cycles: s.ticked + s.leapt, Ticked: s.ticked, Leapt: s.leapt}
	for i := range s.slots {
		ks.Components = append(ks.Components, s.slots[i].ComponentKernelStats)
	}
	return ks
}

// QueueDepthsInto appends the memory controller's per-app queue depths to
// buf[:0] and returns it, allocation-free for periodic samplers
// (internal/obs); total pending is Controller().Pending().
func (s *System) QueueDepthsInto(buf []int) []int { return s.ctrl.QueueDepthsInto(buf) }

// AppCounters is one application's counters in its core, L1, L2 (its row of
// the shared L2 in that topology) and the memory controller.
type AppCounters struct {
	Core   cpu.Stats
	L1, L2 cache.Stats
	Ctrl   memctrl.AppStats
}

// Counters is a reading of every measurement counter of a System: the cycle,
// the DRAM device's totals and one row per application. Counters only count
// up, so a measurement window is exactly the reading now minus the mark
// ResetStats took.
type Counters struct {
	Cycles int64
	DRAM   dram.Stats
	Apps   []AppCounters
}

// read sets c to the counters' current values, reusing c.Apps.
func (s *System) read(c *Counters) {
	c.Cycles, c.DRAM, c.Apps = s.now, s.dev.Stats(), slices.Grow(c.Apps[:0], len(s.cores))
	for i, core := range s.cores {
		a := AppCounters{Core: core.Stats(), L1: s.l1s[i].Stats(), Ctrl: s.ctrl.StatsFor(i)}
		if s.sharedL2 != nil {
			a.L2 = s.sharedL2.StatsFor(i)
		} else {
			a.L2 = s.l2s[i].Stats()
		}
		c.Apps = append(c.Apps, a)
	}
}

// zeroMark is the mark of a new system: every counter starts at zero. With no
// rows, WindowInto leaves the reading as it is.
var zeroMark Counters

// ResetStats starts a measurement window by marking the counters' current
// values. It changes no simulation state, and it never writes into the mark
// it replaces, which checkpoints taken earlier share.
func (s *System) ResetStats() {
	m := new(Counters)
	s.read(m)
	s.mark = m
}

// WindowInto sets w to the counts of the current measurement window — the
// reading now minus the mark — reusing w.Apps, so a per-epoch reader
// allocates nothing after its first call.
func (s *System) WindowInto(w *Counters) {
	s.read(w)
	w.Cycles -= s.mark.Cycles
	w.DRAM = w.DRAM.Sub(s.mark.DRAM)
	for i, m := range s.mark.Apps {
		a := &w.Apps[i]
		a.Core, a.L1, a.L2, a.Ctrl = a.Core.Sub(m.Core), a.L1.Sub(m.L1), a.L2.Sub(m.L2), a.Ctrl.Sub(m.Ctrl)
	}
}

// AppResult is one application's measurement over the last window.
type AppResult struct {
	Name         string
	Instructions int64
	Cycles       int64
	IPC          float64
	// Off-chip traffic (reads + writebacks) as counted at the memory
	// controller, and the derived rates.
	OffChipAccesses    int64
	APC                float64 // off-chip accesses per CPU cycle
	APKC               float64 // accesses per kilo-cycle (Table III unit)
	API                float64 // accesses per instruction
	APKI               float64 // accesses per kilo-instruction (Table III unit)
	InterferenceCycles int64
	L2MissRate         float64
}

// Result is a whole-system measurement over the last window.
type Result struct {
	Apps           []AppResult
	WindowCycles   int64
	BusUtilization float64
	TotalAPC       float64 // the model's B: total accesses served per cycle
	// Energy is the DRAM energy over the window (DRAMSim2-style
	// current-based estimate with default DDR2 parameters).
	Energy dram.Energy
	// EnergyPerBitPJ is the dynamic DRAM energy per transferred bit.
	EnergyPerBitPJ float64
	// EnergyError records why the energy estimate is missing (zero Energy),
	// e.g. an invalid power configuration. Empty when the estimate is valid.
	EnergyError string
}

// Results snapshots the current window's measurements.
func (s *System) Results() Result {
	w := &s.win
	s.WindowInto(w)
	res := Result{WindowCycles: w.Cycles}
	var totalAccesses int64
	for i, a := range w.Apps {
		served := a.Ctrl.Served()
		totalAccesses += served
		ar := AppResult{
			Name:               s.specs[i].Name,
			Instructions:       a.Core.Retired,
			Cycles:             a.Core.Cycles,
			IPC:                a.Core.IPC(),
			OffChipAccesses:    served,
			InterferenceCycles: a.Ctrl.InterferenceCycles,
		}
		if a.Core.Cycles > 0 {
			ar.APC = float64(served) / float64(a.Core.Cycles)
			ar.APKC = ar.APC * 1000
		}
		if a.Core.Retired > 0 {
			ar.API = float64(served) / float64(a.Core.Retired)
			ar.APKI = ar.API * 1000
		}
		if l2 := a.L2; l2.Hits+l2.Misses > 0 {
			ar.L2MissRate = float64(l2.Misses) / float64(l2.Hits+l2.Misses)
		}
		res.Apps = append(res.Apps, ar)
	}
	if w.Cycles > 0 {
		res.TotalAPC = float64(totalAccesses) / float64(w.Cycles)
		res.BusUtilization = float64(w.DRAM.BusBusyCycles) / float64(w.Cycles*int64(s.cfg.DRAM.Channels))
		power := dram.DefaultPowerConfig()
		if s.cfg.Power != nil {
			power = *s.cfg.Power
		}
		if e, err := dram.EstimateEnergy(s.cfg.DRAM, power, w.DRAM, w.Cycles); err != nil {
			res.EnergyError = err.Error()
		} else {
			res.Energy = e
			res.EnergyPerBitPJ = dram.EnergyPerBitPJ(s.cfg.DRAM, e, w.DRAM)
		}
	}
	return res
}

// APIsInto appends the per-app off-chip accesses-per-instruction of the
// current window to buf[:0] and returns it. It is the allocation-free
// accessor for per-epoch readers (the online repartitioning loop) that only
// need the API vector, not a full Result.
func (s *System) APIsInto(buf []float64) []float64 {
	s.WindowInto(&s.win)
	buf = buf[:0]
	for _, a := range s.win.Apps {
		api := 0.0
		if a.Core.Retired > 0 {
			api = float64(a.Ctrl.Served()) / float64(a.Core.Retired)
		}
		buf = append(buf, api)
	}
	return buf
}

// IPCs returns the per-app IPC vector of the last window.
func (r Result) IPCs() []float64 {
	out := make([]float64, len(r.Apps))
	for i, a := range r.Apps {
		out[i] = a.IPC
	}
	return out
}

// APCs returns the per-app off-chip APC vector of the last window.
func (r Result) APCs() []float64 {
	out := make([]float64, len(r.Apps))
	for i, a := range r.Apps {
		out[i] = a.APC
	}
	return out
}

// APIs returns the per-app off-chip API vector of the last window.
func (r Result) APIs() []float64 {
	out := make([]float64, len(r.Apps))
	for i, a := range r.Apps {
		out[i] = a.API
	}
	return out
}
