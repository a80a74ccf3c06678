package cache

import (
	"fmt"
	"sort"

	"bwpart/internal/mem"
)

// Checkpointing a cache is a two-phase protocol because caches retain
// *foreign* requests — a core's load in an MSHR waiter list, an upper
// cache's fill request in the event queue — that can only be re-linked once
// every component has rebuilt its own request objects:
//
//	phase 1  Restore(st):        lines, stats, MSHRs (own fill requests
//	                             rebuilt with fresh closures), event seq.
//	phase 2  Relink(st, resolve): waiter lists, the event heap, and the
//	                             deferred retry list, resolving each captured
//	                             RequestState through the system's resolver.
//
// Snapshots are plain data sharing no memory with the cache; one snapshot
// may restore any number of caches of the same kind, geometry and app count.

// cevState is the serialized form of one scheduled cache event.
type cevState struct {
	cycle int64
	seq   uint64
	send  bool
	req   mem.RequestState
}

// mshrState is the serialized form of one outstanding miss.
type mshrState struct {
	la        uint64
	app       int
	write     bool
	prefetch  bool
	hasWaiter bool
	wbApp     int
	waiters   []mem.RequestState
}

// A snapshot keeps a line as its tag plus one meta word: the flag bits below
// and, above metaRankShift, the line's dense LRU rank within its set, which
// restores as its stamp and replaces no victim differently (DESIGN.md §8).
// maxWays is the associativity whose ranks still fit.
const (
	metaValid uint16 = 1 << iota
	metaDirty
	metaPrefetched
	metaRankShift = iota
	wayBits       = 16 - metaRankShift
	maxWays       = 1 << wayBits
)

// State is an opaque snapshot of a Cache's or a SharedCache's mutable state.
type State struct {
	tags     []uint64 // one per line, set by set
	meta     []uint16 // one per line: flags and LRU rank
	owners   []int32  // one per line, SharedCache only
	lruTick  uint64
	stats    []Stats // one row for a Cache, one per app for a SharedCache
	quota    []int   // SharedCache only
	mshrs    []mshrState
	eventSeq uint64
	events   []cevState
	deferred []mem.RequestState
}

// SetSnapID assigns the cache's checkpoint identity (mem.Origin.Comp for
// its fill and writeback requests). The system builder calls it once,
// before any traffic.
func (e *engine) SetSnapID(id int32) {
	e.snapID = id
	e.wbs.comp = id
}

// FillRequest resolves a line address to the live fill request of the MSHR
// registered for it (mem.Origin{OriginCacheFill, snapID, la}).
func (e *engine) FillRequest(la uint64) (*mem.Request, error) {
	m, ok := e.mshrs[la]
	if !ok {
		return nil, fmt.Errorf("cache %s: no MSHR for line %#x", e.cfg.Name, la)
	}
	return &m.fillReq, nil
}

// WBRequest returns a live writeback request for (app, addr). Writebacks
// carry no state beyond their payload, so a restore recreates them from the
// pool rather than locating an original.
func (e *engine) WBRequest(app int, addr uint64) *mem.Request {
	return e.wbs.get(app, addr)
}

// snapshot captures the engine's mutable state plus copies of the embedding
// cache's counters and quotas; lines keep their owner when owners is set.
// MSHRs are serialized in ascending line-address order so captures are
// deterministic; the event heap is captured in backing-array order so Relink
// can rebuild the exact heap layout.
func (e *engine) snapshot(stats []Stats, quota []int, owners bool) *State {
	if e.lruTick >= 1<<(64-wayBits) {
		panic(fmt.Sprintf("cache %s: LRU clock %d does not fit a snapshot key", e.cfg.Name, e.lruTick))
	}
	n := len(e.sets) * e.cfg.Ways
	st := &State{
		tags:     make([]uint64, n),
		meta:     make([]uint16, n),
		lruTick:  e.lruTick,
		stats:    append([]Stats(nil), stats...),
		quota:    append([]int(nil), quota...),
		eventSeq: e.events.seq,
	}
	if owners {
		st.owners = make([]int32, n)
	}
	keys := make([]uint64, e.cfg.Ways)
	for i, set := range e.sets {
		base := i * e.cfg.Ways
		meta := st.meta[base : base+len(set)]
		for w := range set {
			l := &set[w]
			st.tags[base+w] = l.tag
			meta[w] = flag(l.valid, metaValid) | flag(l.dirty, metaDirty) | flag(l.prefetched, metaPrefetched)
			if owners {
				st.owners[base+w] = l.owner
			}
		}
		rankSet(set, keys, meta)
	}
	st.mshrs = make([]mshrState, 0, len(e.mshrs))
	for la, m := range e.mshrs {
		ms := mshrState{
			la: la, app: m.app,
			write: m.write, prefetch: m.prefetch,
			hasWaiter: m.hasWaiter, wbApp: m.wbApp,
		}
		for _, w := range m.waiters {
			ms.waiters = append(ms.waiters, mem.CaptureRequest(w))
		}
		st.mshrs = append(st.mshrs, ms)
	}
	sort.Slice(st.mshrs, func(i, j int) bool { return st.mshrs[i].la < st.mshrs[j].la })
	st.events = make([]cevState, len(e.events.h))
	for i, ev := range e.events.h {
		st.events[i] = cevState{cycle: ev.cycle, seq: ev.seq, send: ev.send, req: mem.CaptureRequest(ev.req)}
	}
	st.deferred = make([]mem.RequestState, len(e.deferred))
	for i, r := range e.deferred {
		st.deferred[i] = mem.CaptureRequest(r)
	}
	return st
}

// rankSet ORs each line's dense LRU rank within set into its meta word. It
// sorts the keys stamp<<wayBits | way (keys has one slot per way) with an
// insertion sort whose inner step is a branch-free min / max: stamps lie in
// random order within a set, so a branching sort would mispredict on nearly
// every set. A key holds any stamp below 2^51; that many accesses take a
// simulation of months, and snapshot panics on a clock past it.
func rankSet(set []line, keys []uint64, meta []uint16) {
	for w := range set {
		x := set[w].used<<wayBits | uint64(w)
		for k := range keys[:w] {
			keys[k], x = min(keys[k], x), max(keys[k], x)
		}
		keys[w] = x
	}
	rank, prev := uint16(0), keys[0]>>wayBits
	for _, k := range keys {
		if k>>wayBits != prev {
			rank, prev = rank+1, k>>wayBits
		}
		meta[k&(maxWays-1)] |= rank << metaRankShift
	}
}

// flag returns bit when b is set (compiled to a conditional move).
func flag(b bool, bit uint16) uint16 {
	if b {
		return bit
	}
	return 0
}

// restore is checkpoint phase 1: lines and MSHR shells (Relink does waiters,
// events and deferred sends). It validates st in full before touching the
// cache: a Cache expects (1, 0) rows of counters and quotas, a SharedCache
// (numApps, numApps), so a state of the other kind or app count is refused.
// The embedding cache then installs its counters.
func (e *engine) restore(st *State, statRows, quotaRows int) error {
	switch {
	case st == nil:
		return fmt.Errorf("cache %s: nil state", e.cfg.Name)
	case len(st.tags) != len(e.sets)*e.cfg.Ways:
		return fmt.Errorf("cache %s: geometry mismatch: state has %d lines, cache has %d",
			e.cfg.Name, len(st.tags), len(e.sets)*e.cfg.Ways)
	case len(st.stats) != statRows || len(st.quota) != quotaRows:
		return fmt.Errorf("cache %s: state has %d stat rows and %d quotas, cache has %d and %d",
			e.cfg.Name, len(st.stats), len(st.quota), statRows, quotaRows)
	case len(st.mshrs) > e.cfg.MSHRs:
		return fmt.Errorf("cache %s: state has %d MSHRs, cache has %d", e.cfg.Name, len(st.mshrs), e.cfg.MSHRs)
	}
	for i, set := range e.sets {
		base := i * e.cfg.Ways
		tags, meta := st.tags[base:base+len(set)], st.meta[base:base+len(set)]
		for w := range set {
			// Field by field: a composite literal is built on the stack with
			// byte stores and copied out by a wide load that stalls on them.
			m, l := meta[w], &set[w]
			l.tag, l.used, l.owner = tags[w], uint64(m>>metaRankShift), 0
			l.valid, l.dirty, l.prefetched = m&metaValid != 0, m&metaDirty != 0, m&metaPrefetched != 0
		}
		if st.owners != nil {
			for w := range set {
				set[w].owner = st.owners[base+w]
			}
		}
	}
	e.lruTick = st.lruTick
	for la, m := range e.mshrs {
		e.recycle(m)
		delete(e.mshrs, la)
	}
	for _, ms := range st.mshrs {
		m := e.newMSHR(ms.la, ms.app)
		m.write, m.prefetch, m.hasWaiter, m.wbApp = ms.write, ms.prefetch, ms.hasWaiter, ms.wbApp
		e.mshrs[ms.la] = m
	}
	e.events.h = e.events.h[:0]
	e.events.seq = st.eventSeq
	e.deferred = e.deferred[:0]
	return nil
}

// Relink is checkpoint phase 2: resolve every retained foreign request and
// reinstall waiter lists, the event heap (in captured array order, which
// preserves the heap layout exactly), and the deferred retry list.
func (e *engine) Relink(st *State, resolve mem.Resolver) error {
	for _, ms := range st.mshrs {
		m := e.mshrs[ms.la]
		for _, ws := range ms.waiters {
			req, err := resolve(ws)
			if err != nil {
				return fmt.Errorf("cache %s: waiter for line %#x: %w", e.cfg.Name, ms.la, err)
			}
			m.waiters = append(m.waiters, req)
		}
	}
	for _, es := range st.events {
		req, err := resolve(es.req)
		if err != nil {
			return fmt.Errorf("cache %s: event at cycle %d: %w", e.cfg.Name, es.cycle, err)
		}
		e.events.h = append(e.events.h, cev{cycle: es.cycle, seq: es.seq, req: req, send: es.send})
	}
	for _, ds := range st.deferred {
		req, err := resolve(ds)
		if err != nil {
			return fmt.Errorf("cache %s: deferred send: %w", e.cfg.Name, err)
		}
		e.deferred = append(e.deferred, req)
	}
	return nil
}

// Snapshot captures the cache's mutable state.
func (c *Cache) Snapshot() *State { return c.snapshot([]Stats{c.stats}, nil, false) }

// Restore is checkpoint phase 1 (see engine.restore).
func (c *Cache) Restore(st *State) error {
	if err := c.restore(st, 1, 0); err != nil {
		return err
	}
	c.stats = st.stats[0]
	return nil
}

// Snapshot captures the shared cache's mutable state.
func (c *SharedCache) Snapshot() *State { return c.snapshot(c.stats, c.quota, true) }

// Restore is checkpoint phase 1 (see engine.restore). The per-app MSHR
// occupancy is recomputed from the restored MSHRs.
func (c *SharedCache) Restore(st *State) error {
	if err := c.restore(st, c.numApps, c.numApps); err != nil {
		return err
	}
	copy(c.stats, st.stats)
	copy(c.quota, st.quota)
	clear(c.mshrByApp)
	for _, m := range c.mshrs {
		c.mshrByApp[m.app]++
	}
	return nil
}
