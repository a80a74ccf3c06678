package exper

import (
	"unsafe"

	"bwpart/internal/obs"
)

// ResultCache memoizes finished cells, keyed by their system's fingerprint and
// the cell: it is the engine's memo (single-flight, failures forgotten) at a
// cost of each cell's bytes. Concurrent requests for a cell share one
// simulation, and every caller gets the cached master itself, which it must
// not modify (runCell copies what a master takes from its caller). A cache
// serves every System of a runner's cells and may be shared across runners;
// cells from different configurations never collide because the fingerprint
// is part of the key. SetMaxBytes (or Config.CacheBytes through NewRunner) bounds the
// resident bytes, so a cache stays bounded at service lifetimes where the set
// of distinct cells grows without limit; an evicted cell's next request is an
// ordinary miss (re-simulated, or served by the checkpoint tier).
type ResultCache struct {
	memo[cellValue]
}

// cellValue is a finished cell: its immutable master copy and, once read off
// disk or first asked for, its encoding. enc is owned by the memo's mutex and
// never changes once set.
type cellValue struct {
	run *MixRun
	enc []byte
}

// NewResultCache returns an empty, unbounded cache.
func NewResultCache() *ResultCache {
	return &ResultCache{newMemo[cellValue](0, func(col *obs.Collector, evicted, bytes int64) {
		col.Add(obs.CellEvictions, evicted)
		col.Set(obs.CellBytes, bytes)
	})}
}

// SetMaxBytes bounds the resident bytes of finished cells (0 = unbounded).
// Shrinking the bound evicts immediately. Safe to call on a cache already
// shared across runners.
func (c *ResultCache) SetMaxBytes(n int64) { c.trim(n, nil) }

// Len reports how many finished cells the cache holds (in-flight cells
// count too; they resolve to finished or are removed on error).
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes reports the accounted resident size of finished cells.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cost
}

// resolveCell is the lookup order below the memory tier: load (the disk tier:
// a run and its encoding, or a nil run), then sim when set. A cell served from
// disk counts as a obs.CheckpointHits, a simulated one as obs.CellMisses.
func resolveCell(col *obs.Collector, load func() (*MixRun, []byte), sim func() (*MixRun, error)) (*MixRun, []byte, error) {
	if run, enc := load(); run != nil {
		col.Add(obs.CheckpointHits, 1)
		return run, enc, nil
	}
	if sim == nil {
		return nil, nil, errNotResident
	}
	col.Add(obs.CellMisses, 1)
	run, err := sim()
	return run, nil, err
}

// flight resolves the cell for key in the engine's one lookup order — memory
// tier, then resolveCell — running load and sim at most once per key across
// all concurrent callers, and returns the finished entry. What the leader
// resolves becomes its master, which every caller shares and only reads, so a
// disk hit is promoted and the cell's next request is a memory hit. Without
// wait, a cell in flight is errNotResident. Every resolved cell counts exactly
// once: obs.CellHits on a finished cell, obs.CellCoalesced for joining an
// in-flight one, else resolveCell's count.
func (c *ResultCache) flight(key string, col *obs.Collector, load func() (*MixRun, []byte), sim func() (*MixRun, error), wait bool) (*memoEntry[cellValue], error) {
	build := func() (cellValue, int64, error) {
		run, enc, err := resolveCell(col, load, sim)
		if err != nil {
			return cellValue{}, 0, err
		}
		return cellValue{run, enc}, mixRunBytes(run) + int64(len(enc)), nil
	}
	for {
		e, how, err := c.get(key, col, wait, false, build)
		if err == errNotResident && how == coalesced && wait && sim != nil {
			// A resident-only lookup led that flight and found nothing: look
			// again, and simulate unless another caller got there first.
			continue
		}
		if err != nil {
			return nil, err
		}
		switch how {
		case hit:
			col.Add(obs.CellHits, 1)
		case coalesced:
			col.Add(obs.CellCoalesced, 1)
		}
		return e, nil
	}
}

// encoding returns the cell's encoding, built once under the mutex and charged
// to the budget while the cell is resident (which may evict).
func (c *ResultCache) encoding(key string, e *memoEntry[cellValue], col *obs.Collector) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.val.enc == nil {
		enc, err := encodeRun(e.val.run)
		if err != nil {
			return nil, err
		}
		e.val.enc, e.cost = enc, e.cost+int64(len(enc))
		if c.entries[key] == e {
			c.cost += int64(len(enc))
			c.trimLocked(col)
		}
	}
	return e.val.enc, nil
}

// mixRunBytes estimates the heap footprint of one cached MixRun: the struct
// itself plus every slice's backing array, every string's bytes, and the
// objective map's entries. An estimate is enough — the bound exists to keep
// a long-lived service's memory proportional to the configured budget, not
// to account the allocator exactly.
func mixRunBytes(run *MixRun) int64 {
	size := int64(unsafe.Sizeof(*run))
	size += int64(len(run.Mix.Name)) + int64(len(run.Scheme))
	for _, b := range run.Mix.Benchmarks {
		size += int64(unsafe.Sizeof(b)) + int64(len(b))
	}
	size += int64(len(run.Shares)+len(run.IPCAlone)+len(run.APCAlone)+len(run.EstimatedAPCAlone)+len(run.API)) * 8
	for i := range run.Result.Apps {
		a := &run.Result.Apps[i]
		size += int64(unsafe.Sizeof(*a)) + int64(len(a.Name))
	}
	size += int64(len(run.Result.EnergyError))
	// Map entries: key + value + bucket overhead (~16 bytes each is close
	// enough for a 4-entry map of scalar pairs).
	size += int64(len(run.Values)) * 32
	return size
}
