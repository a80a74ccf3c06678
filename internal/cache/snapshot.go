package cache

import (
	"fmt"
	"slices"

	"bwpart/internal/mem"
)

// State is an opaque snapshot of an idle Cache's or SharedCache's state, as
// a cache is at a system's warm point: its line arrays, copied as they are,
// and the counters and way quotas of the embedding cache. It shares no memory
// with the cache, and builds any number of idle caches of the same kind,
// geometry and app count (FromState, SharedFromState).
type State struct {
	// ways and lineBytes are the geometry the lines were kept in: the ranks
	// in meta are per set of ways lines, and a tag is an address divided by
	// lineBytes.
	ways, lineBytes int32
	tags            []uint64 // the engine's line arrays, copied
	meta            []uint16
	owners          []int32 // SharedCache only
	stats           []Stats // one row for a Cache, one per app for a SharedCache
	quota           []int   // SharedCache only
}

// Idle reports whether the cache holds no request: no outstanding miss, no
// scheduled event and no deferred lower-level send. Only an idle cache is
// snapshotted.
func (e *engine) Idle() bool {
	return len(e.mshrs) == 0 && len(e.events.pending()) == 0 && len(e.deferred) == 0
}

// snapshot copies the engine's line arrays and the embedding cache's
// counters and quotas.
func (e *engine) snapshot(stats []Stats, quota []int) *State {
	return &State{
		ways:      int32(e.cfg.Ways),
		lineBytes: int32(e.cfg.LineBytes),
		tags:      slices.Clone(e.tags),
		meta:      slices.Clone(e.meta),
		owners:    slices.Clone(e.owners),
		stats:     slices.Clone(stats),
		quota:     slices.Clone(quota),
	}
}

// Fits reports why no cache of cfg can be built from st, or nil: a Cache
// when apps is 0, else a SharedCache for apps applications. A nil state, or
// one of another size, associativity, line size, kind or app count, is
// refused.
func (st *State) Fits(cfg Config, apps int) error {
	switch {
	case st == nil:
		return fmt.Errorf("cache %s: nil state", cfg.Name)
	case len(st.tags)*cfg.LineBytes != cfg.SizeBytes || int(st.ways) != cfg.Ways || int(st.lineBytes) != cfg.LineBytes:
		return fmt.Errorf("cache %s: geometry mismatch: state has %d %d B lines in %d-way sets, cache has %d B of %d B lines in %d-way sets",
			cfg.Name, len(st.tags), st.lineBytes, st.ways, cfg.SizeBytes, cfg.LineBytes, cfg.Ways)
	case len(st.stats) != max(apps, 1) || len(st.quota) != apps:
		return fmt.Errorf("cache %s: state has %d stat rows and %d quotas, cache has %d and %d",
			cfg.Name, len(st.stats), len(st.quota), max(apps, 1), apps)
	}
	return nil
}

// Snapshot captures the cache's lines and counters (see Idle).
func (c *Cache) Snapshot() *State { return c.snapshot([]Stats{c.stats}, nil) }

// FromState builds an idle cache over lower holding st's lines and counters,
// or nothing when st does not fit (Fits with apps 0).
func FromState(st *State, cfg Config, lower mem.Port) (*Cache, error) {
	if err := st.Fits(cfg, 0); err != nil {
		return nil, err
	}
	return buildCache(cfg, lower, st, st.stats[0])
}

// Snapshot captures the shared cache's lines, counters and way quotas (see
// Idle).
func (c *SharedCache) Snapshot() *State { return c.snapshot(c.stats, c.quota) }

// SharedFromState builds an idle shared cache for apps applications over
// lower holding st's lines, counters and way quotas, or nothing when st does
// not fit.
func SharedFromState(st *State, cfg Config, apps int, lower mem.Port) (*SharedCache, error) {
	if err := st.Fits(cfg, apps); err != nil {
		return nil, err
	}
	return buildShared(cfg, apps, st.quota, lower, st)
}
