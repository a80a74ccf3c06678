// Package memctrl implements the shared memory controller: per-application
// request queues in front of the DRAM device, a pluggable scheduling policy
// (FCFS, FR-FCFS, start-time-fair bandwidth partitioning, strict priority),
// per-application bandwidth accounting, and the interference detector the
// paper's online APC_alone profiler relies on (Sec. IV-B and IV-C).
package memctrl

import (
	"errors"
	"fmt"
	"math"

	"bwpart/internal/dram"
	"bwpart/internal/event"
	"bwpart/internal/mem"
)

// Entry is one queued memory request together with the controller-side
// metadata scheduling policies need.
type Entry struct {
	Req    *mem.Request
	Coord  dram.Coord
	Arrive int64 // enqueue cycle
	seq    int64 // global arrival sequence, breaks same-cycle ties
	bank   int32 // dense global bank index (Config.GlobalBank), cached at enqueue
}

// AppStats holds one application's counters; they only count up (see Sub).
type AppStats struct {
	Reads  int64 // read accesses completed (data transferred)
	Writes int64 // write accesses completed
	// InterferenceCycles counts cycles in which this app had a pending
	// request that was delayed by another application's occupancy of the
	// data bus or a bank, or by the scheduler choosing another app's
	// request. This is the paper's T_cyc,interference,i counter (Eq. 13).
	InterferenceCycles int64
	// QueueWaitCycles sums, over completed requests, cycles spent between
	// arrival and issue (for diagnostics).
	QueueWaitCycles int64
}

// Served returns total completed accesses (reads + writes), the paper's
// N_accesses,i counter.
func (s AppStats) Served() int64 { return s.Reads + s.Writes }

// Sub returns the counts accumulated from the earlier reading o to s.
func (s AppStats) Sub(o AppStats) AppStats {
	return AppStats{s.Reads - o.Reads, s.Writes - o.Writes, s.InterferenceCycles - o.InterferenceCycles, s.QueueWaitCycles - o.QueueWaitCycles}
}

// Controller is the shared off-chip memory controller. It is driven
// cycle-by-cycle via Tick from a single goroutine.
type Controller struct {
	dev *dram.Device
	// cfg caches dev.Config(): Config() returns the struct by value, and the
	// hot path decodes addresses and reads geometry every cycle.
	cfg      dram.Config
	channels int
	sched    Scheduler
	// headOnly and span cache the scheduler's HeadOnly and span class;
	// SetScheduler refreshes them. A busy-safe class is kept only for a
	// head-only scheduler: for it the set of cycles at which Tick calls Pick
	// is fully determined by nextTry and the completion queue, so skipping
	// the non-Pick cycles in between is bit-identical to ticking them.
	headOnly bool
	span     spanClass
	// completions is the typed completion queue: one record per in-flight
	// access, ordered by (cycle, seq) exactly like the closure-based event
	// queue it replaces, without allocating a closure per issue.
	completions event.Heap[completion]
	compSeq     uint64
	queues      []fifo // one per app
	queued      int    // total entries across queues
	// queuedWrites counts queued write entries (reads = queued-queuedWrites)
	// so WriteDrain's watermark test does not walk the queues on every pick.
	queuedWrites int
	cap          int // max total queued entries (0 = unbounded)
	numApps      int
	seq          int64
	stats        []AppStats
	// entryPool recycles Entries once their issue cycle fully retires;
	// issuedBuf holds the entries issued this Tick until interference
	// accounting has read them.
	entryPool []*Entry
	issuedBuf []*Entry
	// nextTry caches the earliest cycle at which a currently blocked issue
	// attempt could succeed, to skip pointless scans on idle cycles.
	nextTry int64
	// inFlight counts issued-but-not-completed accesses. Issue is gated at
	// maxInFlight so the scheduler, not bank-readiness order, decides who
	// receives data-bus slots: a real controller issues a column command
	// only when the burst can be placed soon, it does not build an
	// unbounded backlog of reserved bus slots.
	inFlight    int
	maxInFlight int
	// tracer, when set, observes every issued access (cycle, app, addr,
	// write). Used for off-chip trace recording.
	tracer func(cycle int64, app int, addr uint64, write bool)
	// completionTracer, when set, observes every retired access with its
	// completion cycle. Differential tests use it to pin the completion
	// stream alongside the issue stream.
	completionTracer func(cycle int64, app int, addr uint64, write bool)
	// wake is the kernel's wake handle (nil when driven standalone). starved
	// records that a bounded queue refused an Access since the upstream
	// caches were last woken; the next dequeue frees the slot a cache may be
	// asleep retrying for, so it wakes them.
	wake    *mem.Waker
	starved bool
	// swapped records that SetScheduler replaced the scheduler New
	// installed (see Pristine).
	swapped bool
}

// SetWaker attaches the simulation kernel's wake handle.
func (c *Controller) SetWaker(w *mem.Waker) { c.wake = w }

// New builds a controller over dev for numApps applications with the given
// total queue capacity (entries). queueCap <= 0 means unbounded.
func New(dev *dram.Device, numApps, queueCap int, sched Scheduler) (*Controller, error) {
	if dev == nil {
		return nil, errors.New("memctrl: nil device")
	}
	if numApps <= 0 {
		return nil, errors.New("memctrl: numApps must be positive")
	}
	if sched == nil {
		return nil, errors.New("memctrl: nil scheduler")
	}
	c := &Controller{
		dev:      dev,
		cfg:      dev.Config(),
		channels: dev.Config().Channels,
		queues:   make([]fifo, numApps),
		cap:      queueCap,
		numApps:  numApps,
		stats:    make([]AppStats, numApps),
		// Enough in-flight accesses to overlap activate+CAS latency with
		// the previous bursts on each channel, and no more.
		maxInFlight: 3 * dev.Config().Channels,
	}
	c.applyScheduler(sched)
	return c, nil
}

// completion is one scheduled access retirement; Before orders the typed
// completion queue by (cycle, seq) — the same total order as the closure
// event queue it replaces. It carries the request itself (stable until its
// Done fires, which is this completion) so the retirement stats read the
// request's fields.
type completion struct {
	cycle int64
	seq   uint64
	wait  int64
	req   *mem.Request
}

func (a completion) Before(b completion) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// SetTracer installs (or clears, with nil) an observer invoked at every
// issue with the access's cycle, application, address and direction.
func (c *Controller) SetTracer(fn func(cycle int64, app int, addr uint64, write bool)) {
	c.tracer = fn
}

// SetCompletionTracer installs (or clears, with nil) an observer invoked at
// every completion with the access's completion cycle, application, address
// and direction. Completions retire in (cycle, seq) order under both
// kernels, so the observed stream is a bit-identity witness complementary
// to SetTracer's issue stream.
func (c *Controller) SetCompletionTracer(fn func(cycle int64, app int, addr uint64, write bool)) {
	c.completionTracer = fn
}

// SetScheduler swaps the scheduling policy (e.g. at a repartitioning
// interval boundary). Queued requests are retained.
func (c *Controller) SetScheduler(s Scheduler) error {
	if s == nil {
		return errors.New("memctrl: nil scheduler")
	}
	c.applyScheduler(s)
	c.swapped = true
	return nil
}

// Pristine reports whether the controller is as New built it: it has taken
// no access and runs the scheduler it was built with. A system checkpoint
// carries no controller state, so only a pristine controller is
// checkpointed.
func (c *Controller) Pristine() bool { return c.seq == 0 && !c.swapped }

// applyScheduler installs s and refreshes the cached scheduler traits.
func (c *Controller) applyScheduler(s Scheduler) {
	c.sched = s
	c.headOnly = s.HeadOnly()
	c.span = s.span()
	if c.span == spanBusy && !c.headOnly {
		c.span = spanNone
	}
}

// Access implements mem.Port. It enqueues the request, returning false when
// the controller queue is full.
func (c *Controller) Access(now int64, req *mem.Request) bool {
	if req.App < 0 || req.App >= c.numApps {
		panic(fmt.Sprintf("memctrl: request from unknown app %d", req.App))
	}
	if c.cap > 0 && c.queued >= c.cap {
		c.starved = true
		return false
	}
	c.wake.Wake()
	c.seq++
	e := c.newEntry()
	e.Req = req
	e.Coord = c.cfg.Decode(req.Addr)
	e.Arrive = now
	e.seq = c.seq
	e.bank = int32(c.cfg.GlobalBank(e.Coord))
	c.queues[req.App].push(e)
	c.queued++
	if req.Write {
		c.queuedWrites++
	}
	c.nextTry = 0 // new work: re-scan immediately
	return true
}

// newEntry takes a recycled Entry from the pool or allocates one.
func (c *Controller) newEntry() *Entry {
	if n := len(c.entryPool); n > 0 {
		e := c.entryPool[n-1]
		c.entryPool = c.entryPool[:n-1]
		return e
	}
	return &Entry{}
}

// freeEntry returns an issued entry to the pool once nothing can reference
// it anymore (it has left its queue and this Tick's interference
// accounting).
func (c *Controller) freeEntry(e *Entry) {
	e.Req = nil
	c.entryPool = append(c.entryPool, e)
}

// PendingFor returns the number of queued requests for one app.
func (c *Controller) PendingFor(app int) int { return c.queues[app].len() }

// QueueDepthsInto appends the per-app queued (not yet issued) request
// counts to buf[:0] and returns it, so periodic samplers can reuse one buffer
// instead of allocating per observation.
func (c *Controller) QueueDepthsInto(buf []int) []int {
	buf = buf[:0]
	for a := range c.queues {
		buf = append(buf, c.queues[a].len())
	}
	return buf
}

// Tick advances the controller by one cycle: deliver completions, account
// interference, and issue requests to the DRAM device — at most one per
// channel per cycle (each channel has its own command path).
func (c *Controller) Tick(now int64) {
	c.runCompletions(now)

	if c.queued == 0 {
		return
	}

	var issued *Entry
	if now >= c.nextTry || !c.headOnly {
		for k := 0; k < c.channels; k++ {
			e := c.issueOne(now)
			if e == nil {
				break
			}
			if issued == nil {
				issued = e
			}
			c.issuedBuf = append(c.issuedBuf, e)
		}
	}
	c.accountInterference(now, issued)
	for i, e := range c.issuedBuf {
		c.freeEntry(e)
		c.issuedBuf[i] = nil
	}
	c.issuedBuf = c.issuedBuf[:0]
}

// runCompletions retires every in-flight access due at or before now, in
// (cycle, seq) order.
func (c *Controller) runCompletions(now int64) {
	for len(c.completions) > 0 && c.completions[0].cycle <= now {
		ev := c.completions.Pop()
		c.inFlight--
		c.nextTry = 0 // a pipeline slot and a bank freed: re-scan
		st := &c.stats[ev.req.App]
		if ev.req.Write {
			st.Writes++
		} else {
			st.Reads++
		}
		st.QueueWaitCycles += ev.wait
		if c.completionTracer != nil {
			c.completionTracer(ev.cycle, ev.req.App, ev.req.Addr, ev.req.Write)
		}
		if ev.req.Done != nil {
			ev.req.Done(ev.cycle)
		}
	}
}

// issueOne asks the scheduler for a victim among issuable entries and
// issues it. Returns the issued entry or nil.
func (c *Controller) issueOne(now int64) *Entry {
	if c.inFlight >= c.maxInFlight {
		// Pipeline full: wait for a completion. Completions reset nextTry.
		if len(c.completions) > 0 && c.headOnly {
			c.nextTry = c.completions[0].cycle
		}
		return nil
	}
	pick := c.sched.Pick(now, c, c.dev)
	if pick.Entry == nil {
		if c.headOnly {
			// Nothing issuable: sleep until the earliest head's bank frees
			// (never, with every queue empty: the next Access resets the gate).
			c.nextTry = c.earliestIssueCycle(now)
		}
		return nil
	}
	e := pick.Entry
	c.removeEntry(pick)
	complete := c.dev.Issue(now, e.Coord, e.Req.App, e.Req.Write)
	c.sched.OnIssue(e)
	if c.tracer != nil {
		c.tracer(now, e.Req.App, e.Req.Addr, e.Req.Write)
	}
	c.inFlight++
	c.compSeq++
	c.completions.Push(completion{
		cycle: complete,
		seq:   c.compSeq,
		wait:  now - e.Arrive,
		req:   e.Req,
	})
	return e
}

// Pick identifies a scheduler choice: the entry plus its location so the
// controller can dequeue it. Depth is the entry's position within its
// app FIFO (0 = oldest).
type Pick struct {
	Entry *Entry
	Depth int
}

// removeEntry dequeues the picked entry. Policies may pick beyond the head
// (FR-FCFS row hits), so removal splices within the app FIFO when needed.
func (c *Controller) removeEntry(p Pick) {
	q := &c.queues[p.Entry.Req.App]
	// Splice: shift older entries up one slot. Row-hit picks are shallow in
	// practice, so the O(depth) move is fine.
	for i := p.Depth; i > 0; i-- {
		q.items[q.head+i] = q.items[q.head+i-1]
	}
	q.pop()
	c.queued--
	if p.Entry.Req.Write {
		c.queuedWrites--
	}
	if c.starved {
		c.starved = false
		c.wake.WakeUpstream()
	}
}

// accountInterference implements the paper's per-cycle interference
// detection: for every app with a pending oldest request, increment its
// interference counter if that request is delayed this cycle by another
// application (bank held by another app, data bus backlogged by another
// app, or the scheduler issued another app's request while this one was
// ready). Delays caused by the app's own earlier requests do not count.
func (c *Controller) accountInterference(now int64, issued *Entry) {
	for a := 0; a < c.numApps; a++ {
		e := c.queues[a].peek()
		if e == nil {
			continue
		}
		bl := c.dev.ContentionAt(int(e.bank), e.Coord.Channel, a, now)
		switch {
		case bl.Blocked && bl.App != a && bl.App >= 0:
			c.stats[a].InterferenceCycles++
		case !bl.Blocked && issued != nil && issued.Req.App != a:
			// Resource was free but the scheduler preferred another app.
			c.stats[a].InterferenceCycles++
		}
	}
}

// NextEventCycle reports whether the controller, after its Tick at cycle
// now, faces a skippable span — no issue, completion, or stat side effect
// other than the per-cycle interference accounting (integrated by SkipSpan)
// can occur before the returned cycle. With queued requests the claim
// additionally requires a scheduler whose span class is not spanNone;
// otherwise the controller must be ticked every cycle.
//
// For an idle-safe scheduler (Pick is a pure function of queue/bank
// state) the bound is the earliest cycle any candidate could issue:
// Pick-call cycles in between may be skipped because their Picks return nil
// without side effects. For a busy-safe scheduler (stateful Pick,
// head-only) no Pick-call cycle may be skipped, so the bound is nextTry —
// the exact gate Tick applies before calling the scheduler. Within
// [now+1, nextTry) the naive loop provably calls nothing but runCompletions
// (empty before the completion head, which also bounds the span) and the
// interference accounting: nextTry only moves on enqueue, completion, or
// issue attempt, none of which occur mid-span. A stale nextTry <= now
// (e.g. right after an issue) clamps to now+1, surrendering the skip rather
// than guessing.
func (c *Controller) NextEventCycle(now int64) (int64, bool) {
	next := int64(math.MaxInt64)
	if len(c.completions) > 0 {
		next = c.completions[0].cycle
	}
	if c.queued == 0 {
		return next, true
	}
	if c.span == spanNone {
		return 0, false
	}
	if c.inFlight < c.maxInFlight {
		if c.span == spanIdle {
			if t := c.earliestIssueCycle(now); t < next {
				next = t
			}
		} else {
			t := c.nextTry
			if t <= now {
				t = now + 1
			}
			if t < next {
				next = t
			}
		}
	}
	return next, true
}

// earliestIssueCycle lower-bounds the first cycle > now at which any queued
// request could issue, assuming no arrivals or completions in between (an
// arrival wakes the controller, a completion bounds its sleep). For
// head-only schedulers the candidates are exactly the app heads; otherwise
// every queued entry is a candidate — conservatively early for policies
// like FR-FCFS that may still decline a bank-ready non-head entry, which
// costs a naive tick but never skips over a real issue. With every queue
// empty it is math.MaxInt64. It is also the head-only nextTry gate issueOne
// arms when nothing is issuable.
func (c *Controller) earliestIssueCycle(now int64) int64 {
	earliest := int64(math.MaxInt64)
	for a := range c.queues {
		q := &c.queues[a]
		n := q.len()
		if c.headOnly && n > 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			t := now + 1
			if r := c.dev.BankReadyAtIndex(int(q.at(i).bank)); r > t {
				t = r
			}
			if t < earliest {
				earliest = t
				if earliest == now+1 {
					return earliest
				}
			}
		}
	}
	return earliest
}

// SkipSpan integrates the per-cycle interference accounting over the
// skipped span [from, to): with queues, banks and buses frozen (no issues
// or completions happen in a skipped span, and an arrival wakes the
// controller first) each app's head
// request accrues exactly the blocked-by-other cycles the per-cycle
// detector would have counted, in closed form via dram.ContentionCycles.
// The scheduler-preferred-another-app term contributes nothing because no
// request issues within the span.
func (c *Controller) SkipSpan(from, to int64) {
	if c.queued == 0 {
		return
	}
	if c.headOnly && c.inFlight >= c.maxInFlight && c.nextTry <= from && len(c.completions) > 0 {
		// The naive loop's first span Tick would pass the stale nextTry
		// gate, hit the in-flight cap in issueOne, and re-arm nextTry to
		// the completion head (its only effect); replay that so the cached
		// gate stays bit-identical.
		c.nextTry = c.completions[0].cycle
	}
	for a := 0; a < c.numApps; a++ {
		e := c.queues[a].peek()
		if e == nil {
			continue
		}
		c.stats[a].InterferenceCycles += c.dev.ContentionCycles(e.Coord, a, from, to)
	}
}

// AccountRejects implements mem.RejectAccounter: a refused Access (queue at
// capacity) has no controller-side effect — no counter, no state change —
// so a span of n refusals integrates to nothing.
func (c *Controller) AccountRejects(app int, n int64) {}

// StatsFor returns app's counters.
func (c *Controller) StatsFor(app int) AppStats { return c.stats[app] }
