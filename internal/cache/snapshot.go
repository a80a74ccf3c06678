package cache

import (
	"fmt"
	"slices"
	"sort"

	"bwpart/internal/mem"
)

// Checkpointing a cache is a two-phase protocol because caches retain
// *foreign* requests — a core's load in an MSHR waiter list, an upper
// cache's fill request in the event queue — that can only be re-linked once
// every component has rebuilt its own request objects:
//
//	phase 1  Restore(st):        lines, stats, MSHRs (own fill requests
//	                             rebuilt with fresh closures).
//	phase 2  Relink(st, resolve): waiter lists, the event queue, and the
//	                             deferred retry list, resolving each captured
//	                             RequestState through the system's resolver.
//
// Snapshots are plain data sharing no memory with the cache; one snapshot
// may restore any number of caches of the same kind, geometry and app count.

// cevState is the serialized form of one scheduled cache event.
type cevState struct {
	cycle int64
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

// State is an opaque snapshot of a Cache's or a SharedCache's mutable state.
type State struct {
	ways     int      // the ranks in meta are per set of ways lines
	tags     []uint64 // the engine's line arrays, copied
	meta     []uint16
	owners   []int32 // SharedCache only
	stats    []Stats // one row for a Cache, one per app for a SharedCache
	quota    []int   // SharedCache only
	mshrs    []mshrState
	events   []cevState // in dispatch order
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
// cache's counters and quotas. The line arrays are copied as they are. MSHRs
// are serialized in ascending line-address order so captures are
// deterministic; the event heap is captured in backing-array order so Relink
// can rebuild the exact heap layout.
func (e *engine) snapshot(stats []Stats, quota []int) *State {
	st := &State{
		ways:   e.cfg.Ways,
		tags:   slices.Clone(e.tags),
		meta:   slices.Clone(e.meta),
		owners: slices.Clone(e.owners),
		stats:  slices.Clone(stats),
		quota:  slices.Clone(quota),
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
	pending := e.events.pending()
	st.events = make([]cevState, len(pending))
	for i, ev := range pending {
		st.events[i] = cevState{cycle: ev.cycle, send: ev.send, req: mem.CaptureRequest(ev.req)}
	}
	st.deferred = make([]mem.RequestState, len(e.deferred))
	for i, r := range e.deferred {
		st.deferred[i] = mem.CaptureRequest(r)
	}
	return st
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
	case len(st.tags) != len(e.tags) || st.ways != e.cfg.Ways:
		return fmt.Errorf("cache %s: geometry mismatch: state has %d lines in %d-way sets, cache has %d in %d-way sets",
			e.cfg.Name, len(st.tags), st.ways, len(e.tags), e.cfg.Ways)
	case len(st.stats) != statRows || len(st.quota) != quotaRows:
		return fmt.Errorf("cache %s: state has %d stat rows and %d quotas, cache has %d and %d",
			e.cfg.Name, len(st.stats), len(st.quota), statRows, quotaRows)
	case len(st.mshrs) > e.cfg.MSHRs:
		return fmt.Errorf("cache %s: state has %d MSHRs, cache has %d", e.cfg.Name, len(st.mshrs), e.cfg.MSHRs)
	}
	copy(e.tags, st.tags)
	copy(e.meta, st.meta)
	copy(e.owners, st.owners)
	for la, m := range e.mshrs {
		e.recycle(m)
		delete(e.mshrs, la)
	}
	for _, ms := range st.mshrs {
		m := e.newMSHR(ms.la, ms.app)
		m.write, m.prefetch, m.hasWaiter, m.wbApp = ms.write, ms.prefetch, ms.hasWaiter, ms.wbApp
		e.mshrs[ms.la] = m
	}
	e.events.reset()
	e.deferred = e.deferred[:0]
	return nil
}

// Relink is checkpoint phase 2: resolve every retained foreign request and
// reinstall waiter lists, the event queue (in captured dispatch order), and
// the deferred retry list.
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
		e.events.push(cev{cycle: es.cycle, req: req, send: es.send})
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
func (c *Cache) Snapshot() *State { return c.snapshot([]Stats{c.stats}, nil) }

// Restore is checkpoint phase 1 (see engine.restore).
func (c *Cache) Restore(st *State) error {
	if err := c.restore(st, 1, 0); err != nil {
		return err
	}
	c.stats = st.stats[0]
	return nil
}

// Snapshot captures the shared cache's mutable state.
func (c *SharedCache) Snapshot() *State { return c.snapshot(c.stats, c.quota) }

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
