// Package cache implements set-associative write-back caches with LRU
// replacement and MSHR-based non-blocking misses. The simulated CMP gives
// each core a private L1 and private L2 (paper Table II); the L2 miss
// stream is what reaches the shared memory controller.
package cache

import (
	"errors"
	"fmt"
	"math"

	"bwpart/internal/mem"
)

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency int64 // cycles from access to data for a hit
	MSHRs      int   // max distinct outstanding miss lines
	// PrefetchDepth enables a next-line prefetcher: on a demand miss for
	// line L, lines L+1..L+PrefetchDepth are fetched too (when MSHRs
	// allow). Zero disables prefetching. Prefetching hides latency on
	// streams at the cost of extra bandwidth demand.
	PrefetchDepth int
}

// L1D returns the paper's L1 data cache: 32 KB, 2-way, 64 B lines, 1 ns
// (5 cycles at 5 GHz).
func L1D() Config {
	return Config{Name: "L1", SizeBytes: 32 << 10, Ways: 2, LineBytes: 64, HitLatency: 5, MSHRs: 8}
}

// L2 returns the paper's private unified L2: 256 KB, 8-way, 64 B lines,
// 5 ns (25 cycles at 5 GHz).
func L2() Config {
	return Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, HitLatency: 25, MSHRs: 16}
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0:
		return errors.New("cache: size, ways and line bytes must be positive")
	case c.SizeBytes%(c.Ways*c.LineBytes) != 0:
		return fmt.Errorf("cache: size %d not divisible by ways*line %d", c.SizeBytes, c.Ways*c.LineBytes)
	case c.HitLatency < 0:
		return errors.New("cache: negative hit latency")
	case c.MSHRs <= 0:
		return errors.New("cache: need at least one MSHR")
	case c.PrefetchDepth < 0:
		return errors.New("cache: negative prefetch depth")
	}
	numSets := c.SizeBytes / (c.Ways * c.LineBytes)
	if numSets&(numSets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", numSets)
	}
	return nil
}

type line struct {
	tag        uint64
	valid      bool
	dirty      bool
	prefetched bool   // brought in by the prefetcher, not yet demanded
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

// Stats counts cache events.
type Stats struct {
	Hits       int64
	Misses     int64 // distinct line misses sent to the lower level
	MSHRMerges int64 // accesses folded into an existing outstanding miss
	Writebacks int64 // dirty victims written to the lower level
	Rejects    int64 // accesses refused because MSHRs were full
	// Prefetches counts prefetch fills issued; PrefetchUseful counts
	// demand accesses that hit a line brought in by a prefetch.
	Prefetches     int64
	PrefetchUseful int64
}

// Cache is one private cache level. Not safe for concurrent use.
type Cache struct {
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
	wbs          wbPool
	deferred     []*mem.Request // lower-level requests rejected, to retry
	lruTick      uint64
	// snapID identifies this cache instance in checkpoint request origins
	// (mem.Origin.Comp); assigned by the system builder via SetSnapID.
	snapID int32
	// wake is the kernel's wake handle (nil when driven standalone).
	wake  *mem.Waker
	stats Stats
}

// SetWaker attaches the simulation kernel's wake handle: Access and fill
// announce themselves through it, and fill — the only transition that can
// turn a refused Access into an accepted one — also wakes the upstream
// component, which may be asleep retrying against this cache.
func (c *Cache) SetWaker(w *mem.Waker) { c.wake = w }

// New builds a cache over the given lower level (the next cache or the
// memory controller).
func New(cfg Config, lower mem.Port) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lower == nil {
		return nil, errors.New("cache: nil lower level")
	}
	numSets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	sets := make([][]line, numSets)
	backing := make([]line, numSets*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	c := &Cache{
		cfg:     cfg,
		sets:    sets,
		setMask: uint64(numSets - 1),
		lower:   lower,
		mshrs:   make(map[uint64]*mshr),
	}
	if ra, ok := lower.(mem.RejectAccounter); ok {
		c.lowerRejects = ra
	}
	return c, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) lineAddr(addr uint64) uint64 { return addr / uint64(c.cfg.LineBytes) }
func (c *Cache) setIndex(la uint64) uint64   { return la & c.setMask }
func (c *Cache) tag(la uint64) uint64        { return la >> 0 } // full line addr as tag (index re-derived)

// lookup returns the way holding la, or -1.
func (c *Cache) lookup(la uint64) int {
	set := c.sets[c.setIndex(la)]
	t := c.tag(la)
	for w := range set {
		if set[w].valid && set[w].tag == t {
			return w
		}
	}
	return -1
}

// Access implements mem.Port. A hit schedules the requester's callback at
// now+HitLatency. A miss allocates an MSHR (merging with an outstanding
// miss for the same line) and forwards a fill to the lower level; Access
// returns false when no MSHR is free, and the caller must retry later.
func (c *Cache) Access(now int64, req *mem.Request) bool {
	c.wake.Wake()
	la := c.lineAddr(req.Addr)
	if w := c.lookup(la); w >= 0 {
		set := c.sets[c.setIndex(la)]
		c.lruTick++
		set[w].used = c.lruTick
		if set[w].prefetched {
			set[w].prefetched = false
			c.stats.PrefetchUseful++
		}
		if req.Write {
			set[w].dirty = true
		}
		c.stats.Hits++
		if req.Done != nil {
			c.events.scheduleDone(now+c.cfg.HitLatency, req)
		}
		return true
	}

	// Miss: merge into an outstanding fill when possible. Requests without
	// a completion callback (posted stores) fold into the MSHR's state but
	// are not retained — callers may reuse their memory once Access returns.
	if m, ok := c.mshrs[la]; ok {
		if req.Done != nil {
			m.waiters = append(m.waiters, req)
		}
		if !m.hasWaiter {
			m.hasWaiter = true
			m.wbApp = req.App
		}
		if req.Write {
			m.write = true
		}
		if m.prefetch {
			// A demand access caught up with an in-flight prefetch: the
			// prefetch was timely.
			m.prefetch = false
			c.stats.PrefetchUseful++
		}
		c.stats.MSHRMerges++
		return true
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		c.stats.Rejects++
		return false
	}
	m := c.newMSHR(la, req.App)
	m.write = req.Write
	m.hasWaiter = true
	m.wbApp = req.App
	if req.Done != nil {
		m.waiters = append(m.waiters, req)
	}
	c.mshrs[la] = m
	c.stats.Misses++

	// The tag lookup takes HitLatency before the miss can go out.
	c.events.scheduleSend(now+c.cfg.HitLatency, &m.fillReq)
	c.prefetchAfterMiss(now, la, req.App)
	return true
}

// newMSHR takes a recycled MSHR (or builds one with its fill closure) and
// primes it for line la on behalf of app.
func (c *Cache) newMSHR(la uint64, app int) *mshr {
	var m *mshr
	if n := len(c.mshrFree); n > 0 {
		m = c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
		m.write, m.prefetch, m.hasWaiter, m.wbApp = false, false, false, 0
	} else {
		m = &mshr{}
		m.fillReq.Done = func(cycle int64) { c.fill(cycle, m) }
	}
	m.la = la
	m.app = app
	m.fillReq.App = app
	m.fillReq.Addr = la * uint64(c.cfg.LineBytes)
	m.fillReq.Origin = mem.Origin{Kind: mem.OriginCacheFill, Comp: c.snapID, Key: la}
	return m
}

// prefetchAfterMiss issues next-line prefetches for the lines following a
// demand miss, as far as PrefetchDepth and free MSHRs allow.
func (c *Cache) prefetchAfterMiss(now int64, la uint64, app int) {
	for d := 1; d <= c.cfg.PrefetchDepth; d++ {
		pl := la + uint64(d)
		if len(c.mshrs) >= c.cfg.MSHRs {
			return
		}
		if w := c.lookup(pl); w >= 0 {
			continue
		}
		if _, ok := c.mshrs[pl]; ok {
			continue
		}
		m := c.newMSHR(pl, app)
		m.prefetch = true
		c.mshrs[pl] = m
		c.stats.Prefetches++
		c.events.scheduleSend(now+c.cfg.HitLatency, &m.fillReq)
	}
}

// sendLower forwards a request to the lower level, deferring it for retry
// if the lower level cannot accept it this cycle.
func (c *Cache) sendLower(now int64, req *mem.Request) {
	if !c.lower.Access(now, req) {
		c.deferred = append(c.deferred, req)
	}
}

// fill installs m's line on miss completion, evicting (and writing back) a
// victim, wakes every merged waiter, then recycles the MSHR.
func (c *Cache) fill(now int64, m *mshr) {
	c.wake.Wake()
	c.wake.WakeUpstream()
	la := m.la
	if c.mshrs[la] != m {
		panic(fmt.Sprintf("cache %s: fill without MSHR for line %#x", c.cfg.Name, la))
	}
	delete(c.mshrs, la)

	set := c.sets[c.setIndex(la)]
	victim := 0
	for w := range set {
		if !set[w].valid {
			victim = w
			break
		}
		if set[w].used < set[victim].used {
			victim = w
		}
	}
	v := &set[victim]
	if v.valid && v.dirty {
		c.stats.Writebacks++
		c.sendLower(now, c.wbs.get(m.wbApp, c.victimAddr(v.tag)))
	}
	c.lruTick++
	*v = line{tag: c.tag(la), valid: true, dirty: m.write, prefetched: m.prefetch, used: c.lruTick}

	for i, req := range m.waiters {
		req.Done(now)
		m.waiters[i] = nil
	}
	m.waiters = m.waiters[:0]
	c.mshrFree = append(c.mshrFree, m)
}

// victimAddr reconstructs the byte address of an evicted line from its tag.
func (c *Cache) victimAddr(tag uint64) uint64 {
	return tag * uint64(c.cfg.LineBytes)
}

// Tick runs due events (hit callbacks, delayed miss sends) and retries
// deferred lower-level requests.
func (c *Cache) Tick(now int64) {
	c.runEvents(now)
	if len(c.deferred) == 0 {
		return
	}
	kept := c.deferred[:0]
	for i, req := range c.deferred {
		if !c.lower.Access(now, req) {
			// Preserve order: once one fails, keep the rest for next cycle.
			kept = append(kept, c.deferred[i:]...)
			break
		}
	}
	c.deferred = kept
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
func (c *Cache) NextEventCycle(now int64) (int64, bool) {
	if len(c.deferred) > 0 && c.lowerRejects == nil {
		return 0, false
	}
	if next, ok := c.events.next(); ok {
		return next, true
	}
	return math.MaxInt64, true
}

// runEvents dispatches every due event in (cycle, seq) order.
func (c *Cache) runEvents(now int64) {
	for len(c.events.h) > 0 && c.events.h[0].cycle <= now {
		ev := c.events.h.Pop()
		if ev.send {
			c.sendLower(ev.cycle, ev.req)
		} else {
			ev.req.Done(ev.cycle)
		}
	}
}

// SkipSpan integrates the per-cycle effects of the skipped span [from, to):
// with a non-empty deferred list, each cycle's Tick would have retried
// deferred[0] against the unchanged lower level exactly once and been refused
// (order preserved: the first failure stops the retry loop), so the span
// amounts to to-from accounted refusals. An idle span has no effects.
func (c *Cache) SkipSpan(from, to int64) {
	if len(c.deferred) > 0 {
		c.lowerRejects.AccountRejects(c.deferred[0].App, to-from)
	}
}

// AccountRejects implements mem.RejectAccounter: a refused Access's only
// effect is the reject counter, so n refusals integrate to n increments.
func (c *Cache) AccountRejects(app int, n int64) {
	c.stats.Rejects += n
}

// OutstandingMisses returns the number of in-flight miss lines.
func (c *Cache) OutstandingMisses() int { return len(c.mshrs) }

// Touch installs addr's line functionally (no timing, no events): used for
// fast-forward cache warmup before timed simulation, mirroring the paper's
// 500M-instruction atomic-mode warmup. The write flag propagates down so
// lower levels reach steady-state dirtiness (their dirty lines will
// generate writebacks once timed eviction begins); functional victims are
// dropped silently (memory holds no simulated data).
func (c *Cache) Touch(addr uint64, write bool) {
	la := c.lineAddr(addr)
	if w := c.lookup(la); w >= 0 {
		set := c.sets[c.setIndex(la)]
		c.lruTick++
		set[w].used = c.lruTick
		if write {
			set[w].dirty = true
		}
		return
	}
	if t, ok := c.lower.(interface{ Touch(uint64, bool) }); ok {
		t.Touch(addr, write)
	}
	set := c.sets[c.setIndex(la)]
	victim := 0
	for w := range set {
		if !set[w].valid {
			victim = w
			break
		}
		if set[w].used < set[victim].used {
			victim = w
		}
	}
	c.lruTick++
	set[victim] = line{tag: c.tag(la), valid: true, dirty: write, used: c.lruTick}
}
