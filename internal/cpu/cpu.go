// Package cpu models an out-of-order core at the level the bandwidth study
// needs: a reorder buffer with in-order retirement, a dispatch rate that
// captures the application's inherent ILP, and memory-level parallelism
// bounded by both the application (dependence chains) and the hardware
// (cache MSHRs). Loads block retirement at the ROB head until their data is
// ready — at the cycle an L1 hit answered in place names, or when a miss's
// fill returns — so the core tolerates memory latency up to the ROB/MLP
// limit and stalls beyond it — the mechanism that makes IPC respond to
// bandwidth the way the paper's GEM5 cores do.
package cpu

import (
	"errors"
	"fmt"
	"math"

	"bwpart/internal/mem"
)

// Instr is one instruction from a workload stream.
type Instr struct {
	Mem   bool   // memory reference?
	Write bool   // store (posted; does not block retirement)
	Cold  bool   // expected LLC miss: counts against the MLP bound
	Addr  uint64 // byte address when Mem
}

// Stream produces the core's instruction sequence.
type Stream interface {
	Next() Instr
}

// GapStream is a Stream that can hand out a run of non-memory
// instructions at once. SkipGap consumes up to n of the instructions Next
// would return next, stopping before the first memory reference, and
// returns how many it consumed; it must leave the stream exactly as that
// many calls to Next would.
type GapStream interface {
	Stream
	SkipGap(n int) int
}

// DynamicStream is a Stream whose workload changes behavior over time
// (program phases): it exposes the core parameters matching the current
// phase. The core refreshes its ILP ceiling and MLP bound from it
// periodically.
type DynamicStream interface {
	Stream
	// CoreParams returns the current phase's ILP ceiling and
	// memory-level-parallelism bound.
	CoreParams() (baseIPC float64, maxOutstandingLoads int)
}

// Config describes the core.
type Config struct {
	Width   int     // max dispatch and retire per cycle (paper: 8)
	ROBSize int     // reorder buffer entries (paper: 192)
	BaseIPC float64 // dispatch rate ceiling from the app's ILP/dependences
	// MaxOutstandingLoads bounds how many LLC-bound (Cold) loads the app
	// exposes concurrently — its memory-level parallelism as limited by
	// dependence chains. Dispatch of a further cold load stalls until one
	// returns. Cache-hitting loads overlap freely (bounded only by the ROB
	// and the caches' MSHRs), as they do in a real out-of-order core.
	MaxOutstandingLoads int
}

// DefaultConfig returns the paper's core (Table II) with a generic ILP
// ceiling; workloads override BaseIPC and MaxOutstandingLoads.
func DefaultConfig() Config {
	return Config{Width: 8, ROBSize: 192, BaseIPC: 2.0, MaxOutstandingLoads: 8}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0:
		return errors.New("cpu: Width must be positive")
	case c.ROBSize <= 0:
		return errors.New("cpu: ROBSize must be positive")
	case c.BaseIPC <= 0:
		return errors.New("cpu: BaseIPC must be positive")
	case c.MaxOutstandingLoads <= 0:
		return errors.New("cpu: MaxOutstandingLoads must be positive")
	}
	return nil
}

// Stats accumulates core counters over a measurement window.
type Stats struct {
	Cycles            int64
	Retired           int64 // instructions retired
	Loads             int64 // loads dispatched to the cache
	Stores            int64 // stores dispatched to the cache
	ROBFullCycles     int64 // cycles dispatch stalled on a full ROB
	MLPStallCycles    int64 // cycles dispatch stalled on the load-MLP bound
	RejectStallCycles int64 // cycles stalled because L1 refused the access
}

// Sub returns the counts accumulated from the earlier reading o to s.
func (s Stats) Sub(o Stats) Stats {
	return Stats{s.Cycles - o.Cycles, s.Retired - o.Retired, s.Loads - o.Loads, s.Stores - o.Stores,
		s.ROBFullCycles - o.ROBFullCycles, s.MLPStallCycles - o.MLPStallCycles, s.RejectStallCycles - o.RejectStallCycles}
}

// IPC returns retired instructions per cycle over the window.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// robEntry tracks one in-flight instruction.
type robEntry struct {
	// ready is the first cycle the entry may retire: 0 for an instruction
	// complete at dispatch, the answer's cycle for a load its L1 answered
	// in place, and notReady while a load waits for its Done (which then
	// records the completion cycle).
	ready int64
}

// notReady is the ready cycle of a load still waiting for its Done.
const notReady = math.MaxInt64

// coldHit is a cold load its L1 answered in place: it holds an MLP slot
// until its ready cycle, the cycle a completion through Done would have
// released it.
type coldHit struct {
	ready int64
	slot  int
}

// Core is one simulated core. Drive it with Tick once per cycle, or — as
// the simulation kernel does — with Tick at the cycles it is due and
// RunAhead after each Tick, up to a horizon the caller guarantees.
type Core struct {
	cfg Config
	app int
	l1  mem.Port
	// l1Rejects is l1's mem.RejectAccounter view when it has one (real
	// caches do; test stubs may not). Non-nil is what lets a pending
	// instruction stuck behind an L1 reject count as a stable stall:
	// SkipSpan integrates the span's guaranteed-failing retries through it.
	l1Rejects mem.RejectAccounter
	// l1Probe is l1's mem.ResidencyProber view when it has one (real caches
	// do; test stubs may not). Non-nil is what lets RunAhead execute the
	// core's own cycles ahead of the kernel: it issues only the accesses
	// the probe takes as hits.
	l1Probe mem.ResidencyProber
	stream  Stream
	// gaps is stream's GapStream view when it has one: dispatch then takes
	// the non-memory instructions before the next reference as one run.
	gaps GapStream

	rob      []robEntry
	robHead  int // oldest entry
	robCount int

	credit           float64
	outstandingLoads int
	// coldHits are the cold loads answered in place whose MLP slot is still
	// held, in issue order; Tick releases each at the start of its ready
	// cycle.
	coldHits []coldHit
	// dyn, when non-nil, supplies phase-dependent core parameters;
	// refreshed every paramRefresh cycles.
	dyn         DynamicStream
	nextRefresh int64
	// pending holds a fetched instruction that could not dispatch
	// (structural stall); it must dispatch before the stream advances.
	pending    *Instr
	pendingBuf Instr
	// ahead is the first cycle the core has not executed: a Tick at now
	// leaves it at now+1, RunAhead moves it up to the horizon. With open
	// set, cycle ahead itself is begun — retired, credited and dispatched
	// up to pending, an access the L1 probe did not clear — and the next
	// Tick, at exactly that cycle, finishes its dispatch.
	ahead int64
	open  bool

	// loadFree recycles load requests: each loadSlot owns a request and a
	// completion closure built once, so issuing a load allocates nothing in
	// steady state. A slot returns to the free list inside its own Done, or
	// at once when the L1 answers it in place.
	loadFree []*loadSlot
	// storeReq is the reusable posted-store request. Stores have no
	// completion callback and mem.Port implementations do not retain
	// callback-free requests past Access, so one scratch request serves
	// every store.
	storeReq mem.Request
	// wake is the kernel's wake handle (nil when driven standalone): a load
	// completion through Done announces itself through it before changing
	// any state. A load answered in place needs no wake: the core schedules
	// its own tick at the ready cycle (NextEventCycle).
	wake *mem.Waker

	stats Stats
}

// loadSlot is one pooled in-flight load (request + ROB bookkeeping).
type loadSlot struct {
	req  mem.Request
	slot int  // ROB slot completed by the fill
	cold bool // counted against the MLP bound
}

// New builds a core for application app over the given L1 port and
// instruction stream.
func New(cfg Config, app int, l1 mem.Port, stream Stream) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if l1 == nil {
		return nil, errors.New("cpu: nil L1 port")
	}
	if stream == nil {
		return nil, errors.New("cpu: nil instruction stream")
	}
	c := &Core{
		cfg:    cfg,
		app:    app,
		l1:     l1,
		stream: stream,
		rob:    make([]robEntry, cfg.ROBSize),
	}
	c.storeReq = mem.Request{App: app, Write: true}
	c.l1Rejects, _ = l1.(mem.RejectAccounter)
	c.l1Probe, _ = l1.(mem.ResidencyProber)
	c.gaps, _ = stream.(GapStream)
	if dyn, ok := stream.(DynamicStream); ok {
		c.dyn = dyn
	}
	return c, nil
}

// SetWaker attaches the simulation kernel's wake handle.
func (c *Core) SetWaker(w *mem.Waker) { c.wake = w }

// paramRefresh is how often (in cycles) a core re-reads phase-dependent
// parameters from a DynamicStream.
const paramRefresh = 1024

// refreshParams pulls the current phase's parameters from the stream.
func (c *Core) refreshParams(now int64) {
	if c.dyn == nil || now < c.nextRefresh {
		return
	}
	c.nextRefresh = now + paramRefresh
	baseIPC, mlp := c.dyn.CoreParams()
	if baseIPC > 0 {
		c.cfg.BaseIPC = baseIPC
	}
	if mlp > 0 {
		c.cfg.MaxOutstandingLoads = mlp
	}
}

// Stats returns a snapshot of the counters.
func (c *Core) Stats() Stats { return c.stats }

// Tick advances the core one cycle: release the MLP slots of cold loads
// answered in place that are now ready, retire from the ROB head, then
// dispatch new instructions up to the width/ILP/structural limits. At an
// open cycle (see RunAhead) all but the rest of dispatch already ran, so
// Tick only resumes it. A Tick at a cycle the core already executed is a
// kernel bug and panics.
func (c *Core) Tick(now int64) {
	switch {
	case c.open && now == c.ahead:
		c.open = false
		c.issue(now, false)
	case c.open || now < c.ahead:
		panic(fmt.Sprintf("cpu: core %d ticked at cycle %d, already ran up to %d (open %v)", c.app, now, c.ahead, c.open))
	default:
		c.stats.Cycles++
		c.refreshParams(now)
		c.step(now, false)
	}
	c.ahead = now + 1
}

// step is a cycle's work after the parameter refresh: release ready cold
// hits, retire, add the cycle's dispatch credit and dispatch.
func (c *Core) step(now int64, ahead bool) {
	if len(c.coldHits) > 0 {
		c.releaseColdHits(now)
	}
	c.retire(now)
	// Fractional dispatch credit models a sub-Width ILP ceiling; unused
	// credit does not bank beyond one cycle's width.
	c.credit += c.cfg.BaseIPC
	if max := float64(c.cfg.Width); c.credit > max {
		c.credit = max
	}
	c.issue(now, ahead)
}

// Stop names why a RunAhead span ended.
type Stop uint8

const (
	// StopMiss: the next access is not a hit the L1 probe takes (the span
	// ends in an open cycle), or the pending one was refused by the L1.
	StopMiss Stop = iota
	// StopStall: the core is stalled and only a fill can end the stall.
	StopStall
	// StopRefresh: the next cycle refreshes DynamicStream parameters.
	StopRefresh
	// StopHorizon: the core's next cycle, or its own next event, is at or
	// past the horizon.
	StopHorizon
)

// RunAhead executes the core's own cycles from the one after its last Tick
// up to h, exclusive, on the caller's guarantee that nothing else reaches
// the core or changes its L1's tags before h: no fill, no Done. Each such
// cycle is what Tick would do, with two differences. An access goes to the
// L1 only through its probe, which takes it only as a hit answered without
// a callback (an InPlace load, a posted store), which touches L1 state
// nobody else reads before h; the first access it does not
// take is left pending and its cycle open, for the Tick at that cycle to
// issue in the kernel's tick order. And spans the core would sleep through on its
// own clock (credit accrual, a ROB or MLP stall waiting on a ready cycle)
// are integrated in closed form, as SkipSpan would. The span also stops at
// a stall only a fill can end, at an L1 reject, and before a parameter
// refresh, which stays a Tick of its own. RunAhead returns the cycles run
// (executed or integrated), why it stopped, and NextEventCycle's answer
// for the core as the span left it; the kernel counts those cycles as
// slept, and SkipSpan starts after them.
func (c *Core) RunAhead(h int64) (ran int64, why Stop, wake int64, sleep bool) {
	from := c.ahead
	now := from - 1 // the Tick's cycle
	if h <= from || c.l1Probe == nil {
		wake, sleep = c.NextEventCycle(now)
		if c.l1Probe == nil {
			return 0, StopMiss, wake, sleep
		}
		return 0, StopHorizon, wake, sleep
	}
	// idle is set when the last cycle run retired and dispatched nothing
	// (or is the Tick's): only then may the core be stalled or asleep on
	// its own clock, which nextEvent tells. A cycle that moved retires or
	// dispatches runs the next one straight away; should that one idle,
	// running it is what naive ticking does.
	idle := true
	for t := from; ; t++ {
		if t >= h {
			why = StopHorizon
			break
		}
		if idle {
			if next, ok := c.nextEvent(t - 1); ok && next > t {
				switch {
				case c.stallState() == stallReject:
					why = StopMiss
				case next == math.MaxInt64:
					why = StopStall
				case next >= h:
					why = StopHorizon
				default:
					c.skip(t, next)
					c.ahead, t = next, next
				}
				if t < next {
					// The span ends on the event just computed: it is
					// NextEventCycle's answer at c.ahead == t.
					return t - from, why, next, true
				}
			}
		}
		if c.dyn != nil && t >= c.nextRefresh {
			why = StopRefresh
			break
		}
		c.stats.Cycles++
		retired, occupied := c.stats.Retired, c.robCount
		c.step(t, true)
		if c.open {
			c.ahead = t
			return t - from, StopMiss, t, true
		}
		c.ahead = t + 1
		idle = c.stats.Retired == retired && c.robCount == occupied
	}
	wake, sleep = c.NextEventCycle(now)
	return c.ahead - from, why, wake, sleep
}

// releaseColdHits frees the MLP slot of every cold load answered in place
// whose ready cycle has come.
func (c *Core) releaseColdHits(now int64) {
	kept := c.coldHits[:0]
	for _, h := range c.coldHits {
		if h.ready <= now {
			c.outstandingLoads--
		} else {
			kept = append(kept, h)
		}
	}
	c.coldHits = kept
}

// stallKind classifies the core's stable stall states (see stallState).
type stallKind int

const (
	stallNone   stallKind = iota // dispatch progresses once credit allows
	stallROB                     // dispatch blocked on a full ROB
	stallMLP                     // dispatch blocked on the load-MLP bound
	stallReject                  // dispatch retrying an L1-rejected access
)

// stallState classifies the core's dispatch after a Tick: which stable
// stall, if any, every future dispatch attempt repeats until a completion
// or a ready cycle (or the L1 freeing an MSHR) changes the picture. The
// priority order mirrors dispatch exactly: a full ROB masks everything; the
// MLP bound masks an L1 retry. A rejected pending instruction is a stable
// stall only when the L1 supports closed-form reject accounting
// (l1Rejects) — its retry calls Access once per attempt cycle, and that
// refusal's only effect must be integrable.
func (c *Core) stallState() stallKind {
	switch {
	case c.robCount >= c.cfg.ROBSize:
		return stallROB
	case c.pending != nil && c.pending.Mem && !c.pending.Write &&
		c.pending.Cold && c.outstandingLoads >= c.cfg.MaxOutstandingLoads:
		return stallMLP
	case c.pending != nil && c.l1Rejects != nil:
		return stallReject
	}
	return stallNone
}

// NextEventCycle reports whether the core, as left by its Tick at cycle
// now, may sleep: every Tick before the returned cycle would repeat the same
// integrable per-cycle effects (credit accrual, counter increments, at most
// one guaranteed-failing L1 retry), and nothing retires. The returned cycle
// is the first at which the core's own clock changes that: its ROB head's
// ready cycle, the release of a cold load answered in place, the cycle its
// dispatch credit reaches 1 (when only credit holds dispatch back), or a
// phase-parameter refresh. Completions through Done come from other
// components, which wake the core through its Waker.
//
// Dispatch may be held back in four ways. Three are stable stalls, in
// dispatch's own priority order: the ROB is full, the next instruction is a
// cold load held by the MLP bound, or the pending instruction is stuck
// behind an L1 reject (MSHRs full) whose retry the L1 can account in closed
// form. Only a fill can turn that refusal into an acceptance (it frees the
// MSHR or installs the line), and the L1 wakes its upstream core on every
// fill, so a refusal observed this cycle repeats identically for as long as
// the core is left asleep. The fourth is a core that would dispatch but is
// short of credit (BaseIPC < 1): until the add-then-clamp credit sequence
// reaches 1 its Ticks only accrue credit, which SkipSpan replays.
//
// After RunAhead the answer is taken at the end of the last cycle it ran:
// the span up to there is already executed, so the core sleeps through it
// (SkipSpan skips it) and wakes at its next own event past it, or at its
// open cycle.
func (c *Core) NextEventCycle(now int64) (int64, bool) {
	if c.open {
		return c.ahead, true
	}
	next, ok := c.nextEvent(c.ahead - 1)
	if !ok {
		next = c.ahead
	}
	// A cold hit answered with zero latency in the last cycle run is ready
	// in that very cycle: its release, like retirement, is the next cycle's.
	return max(next, c.ahead), ok || c.ahead > now+1
}

// nextEvent is NextEventCycle for a core whose last executed cycle is now:
// its own next event and whether it may sleep until then.
func (c *Core) nextEvent(now int64) (int64, bool) {
	wake := int64(math.MaxInt64)
	if c.robCount > 0 {
		if wake = c.rob[c.robHead].ready; wake <= now+1 {
			return 0, false // retirement progresses next cycle
		}
	}
	if c.stallState() == stallNone {
		// Only a lack of credit can hold dispatch back: count the cycles
		// until the add-then-clamp sequence reaches 1. The clamp at
		// Width >= 1 cannot bind below 1, so plain adds replay it exactly.
		credit, k := c.credit, int64(0)
		for credit < 1 && k < creditLookahead {
			credit += c.cfg.BaseIPC
			k++
		}
		if k <= 1 {
			return 0, false
		}
		wake = min(wake, now+k)
	}
	for _, h := range c.coldHits {
		wake = min(wake, h.ready)
	}
	if c.dyn != nil {
		// Never skip across a parameter refresh: BaseIPC/MLP could change
		// mid-span and break the stall-integration below.
		wake = min(wake, c.nextRefresh)
	}
	return wake, true
}

// creditLookahead bounds how many cycles of credit accrual NextEventCycle
// replays; a core whose credit takes longer to reach 1 wakes after that
// many cycles and looks again.
const creditLookahead = 64

// SkipSpan accounts the cycles [from, to) as if Tick had run on each of
// them while the core was stably stalled (see NextEventCycle). It must
// leave the core bit-identical to naive ticking: Cycles advances, the
// dispatch credit accumulates with the exact repeated add-then-clamp float
// semantics, the matching stall counter increments on every cycle the
// credit allows a dispatch attempt, and — for reject stalls — the L1's
// reject counter advances exactly as the per-cycle retries would have
// driven it. A refused retry leaves nothing else behind that a later cycle
// reads: its load slot returns to the free list and its ROB reservation is
// rolled back.
//
// Cycles before the core's run-ahead point (RunAhead) are already executed
// and are not integrated again.
func (c *Core) SkipSpan(from, to int64) {
	c.skip(max(from, c.ahead), to)
}

// skip is SkipSpan for a span that starts at the core's run-ahead point.
func (c *Core) skip(from, to int64) {
	if from >= to {
		return
	}
	n := to - from
	c.stats.Cycles += n
	w := float64(c.cfg.Width)
	kind := c.stallState()
	// Replay the credit accumulation until it saturates at the clamp value,
	// counting the cycles whose credit allows a dispatch attempt. Clamping
	// assigns exactly w, a fixpoint of add-then-clamp, so once credit == w
	// every remaining cycle is identical; a closed form
	// (credit0 + span*BaseIPC) would not reproduce the naive loop's float
	// rounding bit for bit.
	var attempts, i int64
	for ; i < n && c.credit != w; i++ {
		c.credit += c.cfg.BaseIPC
		if c.credit > w {
			c.credit = w
		}
		if c.credit >= 1 {
			attempts++
		}
	}
	// credit pinned at w (Width >= 1): every remaining cycle attempts.
	attempts += n - i
	if attempts == 0 {
		return
	}
	switch kind {
	case stallROB:
		c.stats.ROBFullCycles += attempts
	case stallMLP:
		c.stats.MLPStallCycles += attempts
	case stallReject:
		// Each attempt cycle runs exactly one failing dispatch: one L1
		// Access refusal (integrated by the L1) and one RejectStallCycles
		// increment (the stalled flag caps it at one per cycle).
		c.stats.RejectStallCycles += attempts
		c.l1Rejects.AccountRejects(c.app, attempts)
	}
}

func (c *Core) retire(now int64) {
	for n := 0; n < c.cfg.Width && c.robCount > 0; n++ {
		if c.rob[c.robHead].ready > now {
			return // in-order retirement blocks on the oldest instruction
		}
		if c.robHead++; c.robHead == c.cfg.ROBSize {
			c.robHead = 0
		}
		c.robCount--
		c.stats.Retired++
	}
}

// issue dispatches on the cycle's credit. With ahead set (RunAhead) a
// memory access the L1 probe does not take as a hit is not issued: it stays
// pending and the cycle stays open.
func (c *Core) issue(now int64, ahead bool) {
	stalled := false
	for c.credit >= 1 {
		if c.robCount >= c.cfg.ROBSize {
			c.stats.ROBFullCycles++
			return
		}
		instr := c.pending
		if instr == nil && c.gaps != nil {
			// A run of non-memory instructions dispatches as the loop would
			// one by one: each takes a ROB entry complete at dispatch and a
			// unit of credit (subtracting whole units from a credit of at
			// most Width is exact, so n at once rounds like n single steps).
			if n := c.gaps.SkipGap(min(int(c.credit), c.cfg.ROBSize-c.robCount)); n > 0 {
				c.pushDoneN(n)
				c.credit -= float64(n)
				continue
			}
		}
		if instr == nil {
			c.pendingBuf = c.stream.Next()
			instr = &c.pendingBuf
		}
		if instr.Mem {
			if !instr.Write && instr.Cold && c.outstandingLoads >= c.cfg.MaxOutstandingLoads {
				c.stats.MLPStallCycles++
				c.pending = instr
				return
			}
			if !c.issueMem(now, instr, ahead) {
				c.pending = instr
				if ahead {
					c.open = true
					return
				}
				if !stalled {
					c.stats.RejectStallCycles++
					stalled = true
				}
				c.pending = instr
				return
			}
		} else {
			c.pushDone()
		}
		c.pending = nil
		c.credit--
	}
}

// issueMem sends a memory instruction to the L1. Loads allocate a ROB slot
// that becomes ready at the cycle the L1 answers them in place, or else at
// their fill callback; stores are posted and retire immediately. Returns
// false when the L1 refused the access (MSHRs full). With ahead set
// (RunAhead) the access goes through the L1 probe, which issues it only as a
// hit: false then means the line is not resident, and the core is left as it
// was, short of the request fields of a load slot back on the free list.
func (c *Core) issueMem(now int64, instr *Instr, ahead bool) bool {
	if instr.Write {
		c.storeReq.Addr = instr.Addr
		var ok bool
		if ahead {
			ok = c.l1Probe.AccessResident(now, &c.storeReq)
		} else {
			ok = c.l1.Access(now, &c.storeReq)
		}
		if ok {
			c.stats.Stores++
			c.pushDone()
		}
		return ok
	}
	ls := c.newLoad()
	ls.cold = instr.Cold
	ls.req.Addr = instr.Addr
	ls.req.Ready = -1
	if ahead {
		// An in-place hit touches nothing of the core's, so the ROB slot is
		// taken once the L1 has cleared the access.
		if !c.l1Probe.AccessResident(now, &ls.req) {
			c.loadFree = append(c.loadFree, ls)
			return false
		}
		ls.slot = c.reserveROB()
	} else {
		ls.slot = c.reserveROB()
		if !c.l1.Access(now, &ls.req) {
			c.unreserveROB()
			c.loadFree = append(c.loadFree, ls)
			return false
		}
	}
	c.stats.Loads++
	if instr.Cold {
		c.outstandingLoads++
	}
	if ready := ls.req.Ready; ready >= 0 {
		// Answered in place: the slot is done with, the ROB entry retires
		// at ready, and a cold load keeps its MLP slot until then.
		c.rob[ls.slot].ready = ready
		if instr.Cold {
			c.coldHits = append(c.coldHits, coldHit{ready: ready, slot: ls.slot})
		}
		c.loadFree = append(c.loadFree, ls)
	}
	return true
}

// newLoad takes a load slot from the free list, or builds one together
// with its completion closure. The closure reads the slot's fields at fill
// time and finishes by recycling the slot — the fill is the last reference
// to it.
func (c *Core) newLoad() *loadSlot {
	if n := len(c.loadFree); n > 0 {
		ls := c.loadFree[n-1]
		c.loadFree = c.loadFree[:n-1]
		return ls
	}
	ls := &loadSlot{req: mem.Request{App: c.app, InPlace: true}}
	ls.req.Done = func(cycle int64) {
		c.wake.Wake()
		c.rob[ls.slot].ready = cycle
		if ls.cold {
			c.outstandingLoads--
		}
		c.loadFree = append(c.loadFree, ls)
	}
	return ls
}

// pushDone appends an entry complete at dispatch.
func (c *Core) pushDone() {
	slot := c.reserveROB()
	c.rob[slot].ready = 0
}

// pushDoneN appends n entries complete at dispatch (caller checked
// capacity).
func (c *Core) pushDoneN(n int) {
	slot := c.robHead + c.robCount
	for range n {
		if slot >= c.cfg.ROBSize {
			slot -= c.cfg.ROBSize
		}
		c.rob[slot].ready = 0
		slot++
	}
	c.robCount += n
}

// reserveROB allocates the next ROB slot, not yet ready (caller checked
// capacity).
func (c *Core) reserveROB() int {
	// robHead < ROBSize and robCount < ROBSize here, so one subtraction wraps.
	slot := c.robHead + c.robCount
	if slot >= c.cfg.ROBSize {
		slot -= c.cfg.ROBSize
	}
	c.rob[slot].ready = notReady
	c.robCount++
	return slot
}

// unreserveROB rolls back the most recent reservation (L1 reject path).
func (c *Core) unreserveROB() {
	c.robCount--
}
