// Package cache implements set-associative write-back caches with LRU
// replacement and MSHR-based non-blocking misses. The simulated CMP gives
// each core a private L1 and private L2 (paper Table II); the L2 miss
// stream is what reaches the shared memory controller. One engine (sets,
// MSHRs, events, span contract, checkpoint) carries two policies: Cache, the
// private level with a next-line prefetcher, and SharedCache, the
// way-partitioned L2 of the paper's footnote-1 CMP variant.
package cache

import (
	"errors"
	"fmt"

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
	case c.LineBytes < 2:
		return errors.New("cache: a line is at least 2 bytes, so no line address is the empty-way tag")
	case c.Ways > maxWays:
		return fmt.Errorf("cache: %d ways, a line's meta word ranks at most %d", c.Ways, maxWays)
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

// Sub returns the counts accumulated from the earlier reading o to s.
func (s Stats) Sub(o Stats) Stats {
	return Stats{s.Hits - o.Hits, s.Misses - o.Misses, s.MSHRMerges - o.MSHRMerges, s.Writebacks - o.Writebacks,
		s.Rejects - o.Rejects, s.Prefetches - o.Prefetches, s.PrefetchUseful - o.PrefetchUseful}
}

// Cache is one private cache level: one Stats row, the next-line prefetcher,
// plain LRU replacement. Not safe for concurrent use.
type Cache struct {
	engine
	stats Stats
}

// New builds an empty cache over the given lower level (the next cache or
// the memory controller).
func New(cfg Config, lower mem.Port) (*Cache, error) { return buildCache(cfg, lower, nil, Stats{}) }

// buildCache builds the cache with counters stats, empty or from st.
func buildCache(cfg Config, lower mem.Port, st *State, stats Stats) (*Cache, error) {
	e, err := newEngine(cfg, lower, st)
	if err != nil {
		return nil, err
	}
	c := &Cache{engine: e, stats: stats}
	c.fillDone = func(m *mshr) func(int64) {
		return func(cycle int64) { c.fill(cycle, m) }
	}
	return c, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Access implements mem.Port. A hit on an InPlace request — a core's load,
// or the fill or writeback of the cache above — is answered in place: Ready
// becomes now+HitLatency and nothing is scheduled (see package mem). Any
// other hit with a callback schedules it at now+HitLatency. A miss
// allocates an MSHR (merging with an outstanding miss for the same line) and
// forwards a fill to the lower level; Access returns false when no MSHR is
// free, and the caller must retry later.
//
// Only a hit that schedules its callback wakes the cache. Any other hit
// touches LRU state and counters alone, and the kernel may leave a sleeping
// cache asleep through it: SkipSpan reads neither, and integrates only the
// refusals of the deferred list's head, which a hit does not touch. Misses
// wake it before touching any state.
func (c *Cache) Access(now int64, req *mem.Request) bool {
	la := c.lineAddr(req.Addr)
	if base, i := c.lookup(la); i >= 0 {
		c.hit(now, req, base, i)
		return true
	}
	c.wake.Wake()

	// Miss: merge into an outstanding fill when possible. Requests without
	// a completion callback (posted stores) fold into the MSHR's state but
	// are not retained — callers may reuse their memory once Access returns.
	if m := c.findMSHR(la); m != nil {
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
	c.mshrs = append(c.mshrs, m)
	c.stats.Misses++

	// The tag lookup takes HitLatency before the miss can go out.
	c.events.scheduleSend(now+c.cfg.HitLatency, &m.fillReq)
	c.prefetchAfterMiss(now, la, req.App)
	return true
}

// hit answers req from line i of the set at base.
func (c *Cache) hit(now int64, req *mem.Request, base, i int) {
	c.use(base, i)
	if c.meta[i]&metaPrefetched != 0 {
		c.meta[i] &^= metaPrefetched
		c.stats.PrefetchUseful++
	}
	if req.Write {
		c.meta[i] |= metaDirty
	}
	c.stats.Hits++
	switch {
	case req.InPlace:
		req.Ready = now + c.cfg.HitLatency
	case req.Done != nil:
		c.wake.Wake()
		c.events.scheduleDone(now+c.cfg.HitLatency, req)
	}
}

// AccessResident implements mem.ResidencyProber: Access for a request whose
// line is resident, one set scan for both the check and the hit. A request
// whose line is not resident reads the tag array and nothing else.
func (c *Cache) AccessResident(now int64, req *mem.Request) bool {
	base, i := c.lookup(c.lineAddr(req.Addr))
	if i >= 0 {
		c.hit(now, req, base, i)
	}
	return i >= 0
}

// prefetchAfterMiss issues next-line prefetches for the lines following a
// demand miss, as far as PrefetchDepth and free MSHRs allow.
func (c *Cache) prefetchAfterMiss(now int64, la uint64, app int) {
	for d := 1; d <= c.cfg.PrefetchDepth; d++ {
		pl := la + uint64(d)
		if len(c.mshrs) >= c.cfg.MSHRs {
			return
		}
		if _, i := c.lookup(pl); i >= 0 {
			continue
		}
		if c.findMSHR(pl) != nil {
			continue
		}
		m := c.newMSHR(pl, app)
		m.prefetch = true
		c.mshrs = append(c.mshrs, m)
		c.stats.Prefetches++
		c.events.scheduleSend(now+c.cfg.HitLatency, &m.fillReq)
	}
}

// fill installs m's line on miss completion, evicting a victim — a dirty one
// is written back on behalf of the first application that demanded the line —
// and wakes every merged waiter. It is the only transition that can turn a
// refused Access into an accepted one, so it also wakes the upstream
// component.
func (c *Cache) fill(now int64, m *mshr) {
	c.wake.Wake()
	c.wake.WakeUpstream()
	c.claim(m)
	base := c.setBase(m.la)
	v := c.lruVictim(base)
	if c.tags[v] != invalidTag && c.meta[v]&metaDirty != 0 {
		c.stats.Writebacks++
		c.sendLower(now, c.wbs.get(m.wbApp, c.byteAddr(c.tags[v])))
	}
	c.install(base, v, m.la, flag(m.write, metaDirty)|flag(m.prefetch, metaPrefetched))
	c.finish(now, m)
}

// AccountRejects implements mem.RejectAccounter: a refused Access's only
// effect is the reject counter, so n refusals integrate to n increments.
func (c *Cache) AccountRejects(app int, n int64) {
	c.stats.Rejects += n
}

// Touch installs addr's line functionally for fast-forward cache warmup
// before timed simulation (see engine.touchResident).
func (c *Cache) Touch(addr uint64, write bool) {
	if c.touchResident(addr, write) {
		return
	}
	la := c.lineAddr(addr)
	base := c.setBase(la)
	c.install(base, c.lruVictim(base), la, flag(write, metaDirty))
}
