package cache

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"bwpart/internal/mem"
)

// A line is its tag and one meta word, in the layout a checkpoint keeps
// (snapshot.go), so that a checkpoint and a cache built from one copy the
// line arrays. An empty way holds invalidTag; a line address is an address
// divided by LineBytes (at least 2), so no line address reaches it. The meta
// word holds the flag bits below and, above metaRankShift, the line's LRU
// rank within its set: a set's ranks are a permutation of 0..Ways-1, and
// Ways-1 is the most recently used line (see engine.use). maxWays is the
// associativity whose ranks fit.
const invalidTag = ^uint64(0)

const (
	metaDirty uint16 = 1 << iota
	metaPrefetched
	metaRankShift = iota
	metaFlags     = 1<<metaRankShift - 1
	maxWays       = 1 << (16 - metaRankShift)
)

// mshr tracks one outstanding miss line and the requests merged into it.
// MSHRs are pooled: each embeds its fill request and the fill completion
// closure (built once, reading m.la at call time), so a miss allocates
// nothing in steady state. The registering cache recycles the mshr at the
// end of fill — the last point anything references it.
type mshr struct {
	write    bool // any merged request was a write (line installs dirty)
	prefetch bool // initiated by the prefetcher, no demand waiter yet
	// hasWaiter/wbApp track the first merged request's app for dirty-victim
	// writeback attribution (posted stores merge without staying in
	// waiters, so len(waiters) cannot stand in for "was ever demanded").
	hasWaiter bool
	wbApp     int
	app       int    // app that registered the miss (shared-cache MSHR accounting)
	la        uint64 // line address being filled
	fillReq   mem.Request
	waiters   []*mem.Request
}

// engine is everything a cache level does that does not depend on who may
// occupy which way: the line arrays, the pooled MSHR table, the typed event
// queue, the fills the lower level answered in place, deferred lower-level
// sends, the kernel's span contract, and the checkpoint of an idle cache
// (snapshot.go). Cache and SharedCache embed it
// and add what is their own — Access accounting, the victim choice,
// writeback attribution.
type engine struct {
	cfg Config
	mru uint16 // the top rank, Ways-1, in place in a meta word
	// tags, meta and owners hold one entry per line, set by set: set s is
	// [s*Ways, (s+1)*Ways). owners is the way partition's bookkeeping (the
	// application whose fill installed the line), SharedCache only.
	tags    []uint64
	meta    []uint16
	owners  []int32
	setMask uint64
	lower   mem.Port
	// lowerRejects is lower's mem.RejectAccounter view when it has one
	// (real lower levels do; test stubs may not). Non-nil is what lets a
	// non-empty deferred list count as a stable span: each skipped cycle's
	// Tick would retry deferred[0] against an unchanged lower level exactly
	// once and fail, and SkipSpan integrates those refusals through it.
	lowerRejects mem.RejectAccounter
	events       cacheEvents
	// fills holds the fill requests the lower level answered in place (see
	// access), each due at its Ready cycle. It is a FIFO of its own: every
	// answer comes the lower level's hit latency after its send, so answers
	// arrive in due order, which events mixed with them would not keep. A
	// fill keeps its MSHR until it completes, so Idle needs no look at it.
	fills cacheEvents
	// mshrs is the MSHR table, at most Config.MSHRs lines (8 in an L1, 16 in
	// an L2) in no order, scanned linearly by line address.
	mshrs    []*mshr
	mshrFree []*mshr // recycled MSHRs (see mshr)
	// fillDone builds a new MSHR's fill-completion callback: a closure that
	// calls the embedding cache's fill directly, so completing a miss costs
	// the one indirect call of Request.Done.
	fillDone func(m *mshr) func(cycle int64)
	wbs      wbPool
	deferred []*mem.Request // lower-level requests rejected, to retry
	// wake is the kernel's wake handle (nil when driven standalone).
	wake *mem.Waker
}

// newEngine builds the engine over lower (the next cache or the memory
// controller), empty or with st's lines; the embedding cache sets fillDone.
func newEngine(cfg Config, lower mem.Port, st *State) (engine, error) {
	if err := cfg.Validate(); err != nil {
		return engine{}, err
	}
	if lower == nil {
		return engine{}, errors.New("cache: nil lower level")
	}
	numSets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	e := engine{
		cfg:     cfg,
		mru:     uint16(cfg.Ways-1) << metaRankShift,
		setMask: uint64(numSets - 1),
		lower:   lower,
	}
	e.lowerRejects, _ = lower.(mem.RejectAccounter)
	if st != nil {
		e.tags, e.meta, e.owners = slices.Clone(st.tags), slices.Clone(st.meta), slices.Clone(st.owners)
		return e, nil
	}
	// Every way starts empty, ranked by its index (see lruVictim): the first
	// set's ranks are copied over the rest in doubling runs.
	e.tags = make([]uint64, numSets*cfg.Ways)
	e.meta = make([]uint16, numSets*cfg.Ways)
	for i := range e.tags {
		e.tags[i] = invalidTag
	}
	for w := range cfg.Ways {
		e.meta[w] = uint16(w) << metaRankShift
	}
	for n := cfg.Ways; n < len(e.meta); n *= 2 {
		copy(e.meta[n:], e.meta[:n])
	}
	return e, nil
}

// SetWaker attaches the simulation kernel's wake handle: Access and fill
// announce themselves through it, and whatever can turn a refused Access
// into an accepted one also wakes the upstream components, which may be
// asleep retrying against this cache.
func (e *engine) SetWaker(w *mem.Waker) { e.wake = w }

func (e *engine) lineAddr(addr uint64) uint64 { return addr / uint64(e.cfg.LineBytes) }
func (e *engine) byteAddr(la uint64) uint64   { return la * uint64(e.cfg.LineBytes) }

// setBase returns the index of the first line of la's set.
func (e *engine) setBase(la uint64) int { return int(la&e.setMask) * e.cfg.Ways }

// lookup returns the base of la's set and the index of the line holding la,
// or -1 when la is not resident.
func (e *engine) lookup(la uint64) (base, i int) {
	base = e.setBase(la)
	for w, tag := range e.tags[base : base+e.cfg.Ways] {
		if tag == la {
			return base, base + w
		}
	}
	return base, -1
}

// use makes line i of the set at base the most recently used. It inlines to
// one compare when the line already holds the top rank, the common case of
// a hit: a meta word holds rank Ways-1 exactly when it is at least mru,
// whatever its flag bits.
func (e *engine) use(base, i int) {
	if e.meta[i] < e.mru {
		e.promote(base, i)
	}
}

// promote gives line i of the set at base the top rank, and every line
// ranked above it moves down one. The update is branch-free (r-rank wraps
// past 2^31 exactly when the line ranks above i): ranks lie in random order
// within a set, so a compare-and-branch loop would mispredict on nearly
// every call.
func (e *engine) promote(base, i int) {
	r := uint32(e.meta[i] >> metaRankShift)
	meta := e.meta[base : base+e.cfg.Ways]
	for w, m := range meta {
		above := (r - uint32(m>>metaRankShift)) >> 31
		meta[w] = m - uint16(above<<metaRankShift)
	}
	e.meta[i] = e.meta[i]&metaFlags | e.mru
}

// lruVictim returns the first empty way of the set at base, else its least
// recently used line: both are the line of rank 0. Empty ways start ranked by
// their index and only ever move down together, so they hold the lowest
// ranks, in index order.
func (e *engine) lruVictim(base int) int {
	for w, m := range e.meta[base : base+e.cfg.Ways] {
		if m < 1<<metaRankShift {
			return base + w
		}
	}
	panic(fmt.Sprintf("cache %s: set %d has no rank 0", e.cfg.Name, base/e.cfg.Ways))
}

// install puts line la with flags into way i of the set at base as its most
// recently used line; the caller has dealt with the victim.
func (e *engine) install(base, i int, la uint64, flags uint16) {
	e.tags[i] = la
	e.meta[i] = e.meta[i]&^metaFlags | flags
	e.use(base, i)
}

// flag returns bit when b is set (compiled to a conditional move).
func flag(b bool, bit uint16) uint16 {
	if b {
		return bit
	}
	return 0
}

// newMSHR takes a recycled MSHR (or builds one with its fill closure) and
// primes it for line la on behalf of app.
func (e *engine) newMSHR(la uint64, app int) *mshr {
	var m *mshr
	if n := len(e.mshrFree); n > 0 {
		m = e.mshrFree[n-1]
		e.mshrFree = e.mshrFree[:n-1]
		m.write, m.prefetch, m.hasWaiter, m.wbApp = false, false, false, 0
	} else {
		m = &mshr{}
		m.fillReq.InPlace = true
		m.fillReq.Done = e.fillDone(m)
	}
	m.la = la
	m.app = app
	m.fillReq.App = app
	m.fillReq.Addr = e.byteAddr(la)
	return m
}

// findMSHR returns the outstanding miss for line la, or nil.
func (e *engine) findMSHR(la uint64) *mshr {
	for _, m := range e.mshrs {
		if m.la == la {
			return m
		}
	}
	return nil
}

// claim takes m out of the MSHR table at the start of its fill; the last
// entry takes its place.
func (e *engine) claim(m *mshr) {
	i := slices.Index(e.mshrs, m)
	if i < 0 {
		panic(fmt.Sprintf("cache %s: fill without MSHR for line %#x", e.cfg.Name, m.la))
	}
	last := len(e.mshrs) - 1
	e.mshrs[i], e.mshrs[last] = e.mshrs[last], nil
	e.mshrs = e.mshrs[:last]
}

// finish ends m's fill: it wakes every merged waiter, then recycles m.
func (e *engine) finish(now int64, m *mshr) {
	for _, req := range m.waiters {
		req.Done(now)
	}
	e.recycle(m)
}

// recycle drops m's waiter references and returns it to the free list.
func (e *engine) recycle(m *mshr) {
	clear(m.waiters)
	m.waiters = m.waiters[:0]
	e.mshrFree = append(e.mshrFree, m)
}

// touchResident is the functional access (no timing, no events) behind both
// warmup entry points, mirroring the paper's 500M-instruction atomic-mode
// warmup. A resident line is refreshed; otherwise the access propagates down
// (write flag included, so lower levels reach steady-state dirtiness) and the
// caller installs the line, dropping the victim: memory holds no data.
func (e *engine) touchResident(addr uint64, write bool) bool {
	if base, i := e.lookup(e.lineAddr(addr)); i >= 0 {
		e.use(base, i)
		if write {
			e.meta[i] |= metaDirty
		}
		return true
	}
	if t, ok := e.lower.(interface{ Touch(uint64, bool) }); ok {
		t.Touch(addr, write)
	}
	return false
}

// sendLower forwards a request to the lower level, deferring it for retry
// if the lower level cannot accept it this cycle.
func (e *engine) sendLower(now int64, req *mem.Request) {
	if !e.access(now, req) {
		e.deferred = append(e.deferred, req)
	}
}

// access offers req, a fill or a writeback, to the lower level once. Both
// are opted into in-place completion (package mem): a private cache below
// answers a hit by writing Ready, and nothing below schedules, wakes or
// ticks for it. An answered fill completes at Ready in this cache's own
// Tick (fills), where the lower level's Tick would have delivered its Done:
// the lower level ticks just before it. An answered writeback (the one
// request a cache sends with Write set) is recycled at once, since its Done
// only returns it to the pool.
func (e *engine) access(now int64, req *mem.Request) bool {
	req.Ready = -1
	if !e.lower.Access(now, req) {
		return false
	}
	switch {
	case req.Ready < 0:
	case req.Write:
		req.Done(req.Ready)
	default:
		e.fills.scheduleDone(req.Ready, req)
	}
	return true
}

// Tick completes the due fills the lower level answered in place, runs due
// events (hit callbacks, delayed miss sends) and retries deferred
// lower-level requests.
func (e *engine) Tick(now int64) {
	e.runEvents(&e.fills, now)
	e.runEvents(&e.events, now)
	if len(e.deferred) == 0 {
		return
	}
	kept := e.deferred[:0]
	for i, req := range e.deferred {
		if !e.access(now, req) {
			// Preserve order: once one fails, keep the rest for next cycle.
			kept = append(kept, e.deferred[i:]...)
			break
		}
	}
	e.deferred = kept
}

// runEvents dispatches every due event of q in the order it was scheduled.
func (e *engine) runEvents(q *cacheEvents, now int64) {
	for {
		ev, ok := q.due(now)
		if !ok {
			return
		}
		if ev.send {
			e.sendLower(ev.cycle, ev.req)
		} else {
			ev.req.Done(ev.cycle)
		}
	}
}

// NextFill returns the earliest cycle a fill can reach the cache from below
// without a tick of the memory controller, given that the lower level
// answers a hit lowerLat cycles after the access: the next fill it answered
// in place, or the next pending send plus lowerLat. A pending callback event
// counts at its own cycle, since it completes a requester's access. A
// deferred send needs no term: the lower level refused it for want of an
// MSHR, and only a fill of the lower level, which the controller drives,
// can turn that refusal into an answer.
func (e *engine) NextFill(lowerLat int64) int64 {
	next := int64(math.MaxInt64)
	if c, ok := e.fills.next(); ok {
		next = c
	}
	for _, ev := range e.events.pending() {
		if ev.cycle >= next {
			break
		}
		if !ev.send {
			return ev.cycle
		}
		next = min(next, ev.cycle+lowerLat)
	}
	return next
}

// NextEventCycle reports whether the cache's near future is a skippable
// span and the next cycle it has scheduled work. With no deferred
// lower-level sends, Tick is a pure drain of the answered fills and the
// events, so the cache needs to run again only at the next of either. A
// non-empty deferred list retries deferred[0] against the lower level once
// per cycle; that span is still skippable when the lower level supports
// closed-form reject accounting — the lower level wakes this cache whenever
// the refusal Tick just observed could turn into an acceptance (a freed
// MSHR or queue slot), so it repeats identically for as long as the cache
// is left asleep — and forbids skipping otherwise.
func (e *engine) NextEventCycle(now int64) (int64, bool) {
	if len(e.deferred) > 0 && e.lowerRejects == nil {
		return 0, false
	}
	next := int64(math.MaxInt64)
	if c, ok := e.events.next(); ok {
		next = c
	}
	if c, ok := e.fills.next(); ok {
		next = min(next, c)
	}
	return next, true
}

// SkipSpan integrates the per-cycle effects of the skipped span [from, to):
// with a non-empty deferred list, each cycle's Tick would have retried
// deferred[0] against the unchanged lower level exactly once and been refused
// (order preserved: the first failure stops the retry loop), so the span
// amounts to to-from accounted refusals. An idle span has no effects.
func (e *engine) SkipSpan(from, to int64) {
	if len(e.deferred) > 0 {
		e.lowerRejects.AccountRejects(e.deferred[0].App, to-from)
	}
}
