package cache

import (
	"errors"
	"fmt"
	"math"

	"bwpart/internal/mem"
)

// line is one way of one set. owner is the way partition's bookkeeping (the
// application whose fill installed the line); a private Cache leaves it zero.
type line struct {
	tag        uint64 // the full line address (the set index is re-derived)
	valid      bool
	dirty      bool
	prefetched bool   // brought in by the prefetcher, not yet demanded
	owner      int32  // SharedCache only
	used       uint64 // LRU stamp
}

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
// occupy which way: the set array, the pooled MSHR table, the typed event
// queue, deferred lower-level sends, the kernel's span contract, and the
// checkpoint (snapshot.go). Cache and SharedCache embed it and add what is
// their own — Access accounting, the victim choice, writeback attribution.
type engine struct {
	cfg     Config
	sets    [][]line
	setMask uint64
	lower   mem.Port
	// lowerRejects is lower's mem.RejectAccounter view when it has one
	// (real lower levels do; test stubs may not). Non-nil is what lets a
	// non-empty deferred list count as a stable span: each skipped cycle's
	// Tick would retry deferred[0] against an unchanged lower level exactly
	// once and fail, and SkipSpan integrates those refusals through it.
	lowerRejects mem.RejectAccounter
	events       cacheEvents
	mshrs        map[uint64]*mshr // keyed by line address
	mshrFree     []*mshr          // recycled MSHRs (see mshr)
	// fillDone builds a new MSHR's fill-completion callback: a closure that
	// calls the embedding cache's fill directly, so completing a miss costs
	// the one indirect call of Request.Done.
	fillDone func(m *mshr) func(cycle int64)
	wbs      wbPool
	deferred []*mem.Request // lower-level requests rejected, to retry
	lruTick  uint64
	// snapID identifies this cache instance in checkpoint request origins
	// (mem.Origin.Comp); assigned by the system builder via SetSnapID.
	snapID int32
	// wake is the kernel's wake handle (nil when driven standalone).
	wake *mem.Waker
}

// newEngine builds the empty engine over lower (the next cache or the memory
// controller); the embedding cache sets fillDone before any traffic.
func newEngine(cfg Config, lower mem.Port) (engine, error) {
	if err := cfg.Validate(); err != nil {
		return engine{}, err
	}
	if lower == nil {
		return engine{}, errors.New("cache: nil lower level")
	}
	numSets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	sets := make([][]line, numSets)
	backing := make([]line, numSets*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	e := engine{
		cfg:     cfg,
		sets:    sets,
		setMask: uint64(numSets - 1),
		lower:   lower,
		mshrs:   make(map[uint64]*mshr),
	}
	e.lowerRejects, _ = lower.(mem.RejectAccounter)
	return e, nil
}

// SetWaker attaches the simulation kernel's wake handle: Access and fill
// announce themselves through it, and whatever can turn a refused Access
// into an accepted one also wakes the upstream components, which may be
// asleep retrying against this cache.
func (e *engine) SetWaker(w *mem.Waker) { e.wake = w }

// OutstandingMisses returns the number of in-flight miss lines.
func (e *engine) OutstandingMisses() int { return len(e.mshrs) }

func (e *engine) lineAddr(addr uint64) uint64 { return addr / uint64(e.cfg.LineBytes) }
func (e *engine) byteAddr(la uint64) uint64   { return la * uint64(e.cfg.LineBytes) }
func (e *engine) set(la uint64) []line        { return e.sets[la&e.setMask] }

// lookup returns the resident line holding la, or nil.
func (e *engine) lookup(la uint64) *line {
	set := e.set(la)
	for w := range set {
		if set[w].valid && set[w].tag == la {
			return &set[w]
		}
	}
	return nil
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
		m.fillReq.Done = e.fillDone(m)
	}
	m.la = la
	m.app = app
	m.fillReq.App = app
	m.fillReq.Addr = e.byteAddr(la)
	m.fillReq.Origin = mem.Origin{Kind: mem.OriginCacheFill, Comp: e.snapID, Key: la}
	return m
}

// claim takes m out of the MSHR table at the start of its fill.
func (e *engine) claim(m *mshr) {
	if e.mshrs[m.la] != m {
		panic(fmt.Sprintf("cache %s: fill without MSHR for line %#x", e.cfg.Name, m.la))
	}
	delete(e.mshrs, m.la)
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
	if l := e.lookup(e.lineAddr(addr)); l != nil {
		e.lruTick++
		l.used = e.lruTick
		if write {
			l.dirty = true
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
	if !e.lower.Access(now, req) {
		e.deferred = append(e.deferred, req)
	}
}

// Tick runs due events (hit callbacks, delayed miss sends) and retries
// deferred lower-level requests.
func (e *engine) Tick(now int64) {
	e.runEvents(now)
	if len(e.deferred) == 0 {
		return
	}
	kept := e.deferred[:0]
	for i, req := range e.deferred {
		if !e.lower.Access(now, req) {
			// Preserve order: once one fails, keep the rest for next cycle.
			kept = append(kept, e.deferred[i:]...)
			break
		}
	}
	e.deferred = kept
}

// runEvents dispatches every due event in (cycle, seq) order.
func (e *engine) runEvents(now int64) {
	for len(e.events.h) > 0 && e.events.h[0].cycle <= now {
		ev := e.events.h.Pop()
		if ev.send {
			e.sendLower(ev.cycle, ev.req)
		} else {
			ev.req.Done(ev.cycle)
		}
	}
}

// NextEventCycle reports whether the cache's near future is a skippable
// span and the next cycle it has scheduled work. With no deferred
// lower-level sends, Tick is a pure event-queue drain, so the cache needs
// to run again only at its next pending event. A non-empty deferred list
// retries deferred[0] against the lower level once per cycle; that span is
// still skippable when the lower level supports closed-form reject
// accounting — the lower level wakes this cache whenever the refusal Tick
// just observed could turn into an acceptance (a freed MSHR or queue slot),
// so it repeats identically for as long as the cache is left asleep — and
// forbids skipping otherwise.
func (e *engine) NextEventCycle(now int64) (int64, bool) {
	if len(e.deferred) > 0 && e.lowerRejects == nil {
		return 0, false
	}
	if next, ok := e.events.next(); ok {
		return next, true
	}
	return math.MaxInt64, true
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
