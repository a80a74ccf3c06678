package cache

import (
	"fmt"
	"slices"
)

// A cache is checkpointed only while it is Idle, as a cache is at a
// system's warm point: no miss outstanding, no event scheduled and no send
// deferred. Its state is then its line arrays, copied as they are, and the
// counters and way quotas of the embedding cache. A State is plain data
// sharing no memory with the cache; one State may restore any number of
// idle caches of the same kind, geometry and app count.

// State is an opaque snapshot of an idle Cache's or SharedCache's state.
type State struct {
	ways   int      // the ranks in meta are per set of ways lines
	tags   []uint64 // the engine's line arrays, copied
	meta   []uint16
	owners []int32 // SharedCache only
	stats  []Stats // one row for a Cache, one per app for a SharedCache
	quota  []int   // SharedCache only
}

// Idle reports whether the cache holds no request: no outstanding miss, no
// scheduled event and no deferred lower-level send. Only an idle cache is
// snapshotted or restored.
func (e *engine) Idle() bool {
	return len(e.mshrs) == 0 && len(e.events.pending()) == 0 && len(e.deferred) == 0
}

// snapshot copies the engine's line arrays and the embedding cache's
// counters and quotas.
func (e *engine) snapshot(stats []Stats, quota []int) *State {
	return &State{
		ways:   e.cfg.Ways,
		tags:   slices.Clone(e.tags),
		meta:   slices.Clone(e.meta),
		owners: slices.Clone(e.owners),
		stats:  slices.Clone(stats),
		quota:  slices.Clone(quota),
	}
}

// restore validates st in full and then copies its line arrays in; the
// embedding cache installs its counters. A Cache expects (1, 0) rows of
// counters and quotas, a SharedCache (numApps, numApps), so a state of the
// other kind or app count is refused, as is a cache that is not Idle.
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
	case !e.Idle():
		return fmt.Errorf("cache %s: requests in flight", e.cfg.Name)
	}
	copy(e.tags, st.tags)
	copy(e.meta, st.meta)
	copy(e.owners, st.owners)
	return nil
}

// Snapshot captures the cache's lines and counters (see Idle).
func (c *Cache) Snapshot() *State { return c.snapshot([]Stats{c.stats}, nil) }

// Restore installs st (see engine.restore).
func (c *Cache) Restore(st *State) error {
	if err := c.restore(st, 1, 0); err != nil {
		return err
	}
	c.stats = st.stats[0]
	return nil
}

// Snapshot captures the shared cache's lines, counters and way quotas (see
// Idle).
func (c *SharedCache) Snapshot() *State { return c.snapshot(c.stats, c.quota) }

// Restore installs st (see engine.restore).
func (c *SharedCache) Restore(st *State) error {
	if err := c.restore(st, c.numApps, c.numApps); err != nil {
		return err
	}
	copy(c.stats, st.stats)
	copy(c.quota, st.quota)
	return nil
}
