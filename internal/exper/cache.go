package exper

import (
	"errors"
	"maps"
	"sync"
	"unsafe"

	"bwpart/internal/obs"
	"bwpart/internal/sim"
)

// ResultCache memoizes finished cells, keyed by config fingerprint and cell, in
// memory with single-flight deduplication: concurrent requests for the same
// cell share one simulation, and every caller — leader or waiter — gets its
// own deep copy, so mutating a returned MixRun can never corrupt the cached
// master. A cache may be shared across runners (e.g. one cache for every
// bandwidth scale of a sweep); cells from different configurations never
// collide because the fingerprint is part of the key.
//
// The cache is byte-accounted: SetMaxBytes (or Config.CacheBytes through
// NewRunner) bounds the resident size of finished cells, and inserting past
// the bound evicts least-recently-used finished cells. Eviction only removes
// cells from the map — callers already waiting on an evicted flight still
// complete normally — so a bounded cache stays safe at service lifetimes
// where the set of distinct cells grows without limit. An evicted cell's
// next request is an ordinary miss (re-simulated, or served by the
// persistent checkpoint tier when one is configured).
//
// Errors are not cached: a failed flight is removed so a later request
// retries, and every caller that joined the flight observes the error.
type ResultCache struct {
	mu       sync.Mutex
	cells    map[string]*cellFlight
	maxBytes int64 // 0 = unbounded
	curBytes int64 // total bytes of finished cells resident in the map
	clock    int64 // logical LRU clock, bumped per touch
}

// cellFlight is one in-flight or finished cell. done is closed exactly once,
// after run/err are final. enc, bytes and lastUse are owned by the cache's
// mutex; enc never changes once set.
type cellFlight struct {
	done    chan struct{}
	run     *MixRun // immutable master copy; nil iff err != nil
	enc     []byte  // encodeRun(run): read off disk, else built by encoding
	err     error
	bytes   int64 // accounted size of run and enc once finished; 0 while in flight
	lastUse int64 // cache clock at last lookup or insert
}

// NewResultCache returns an empty, unbounded cache.
func NewResultCache() *ResultCache {
	return &ResultCache{cells: make(map[string]*cellFlight)}
}

// SetMaxBytes bounds the resident bytes of finished cells (0 = unbounded).
// Shrinking the bound evicts immediately. Safe to call on a cache already
// shared across runners.
func (c *ResultCache) SetMaxBytes(n int64) {
	c.mu.Lock()
	c.maxBytes = n
	c.evictLocked(nil)
	c.mu.Unlock()
}

// Len reports how many finished cells the cache holds (in-flight cells
// count too; they resolve to finished or are removed on error).
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cells)
}

// Bytes reports the accounted resident size of finished cells.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes
}

// errNotResident fails a resident-only lookup (nil sim) for a cell that is in
// neither tier.
var errNotResident = errors.New("exper: cell not resident")

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
// all concurrent callers, and returns the finished flight. What the leader
// resolves becomes its master, which callers only read (lookup hands out deep
// copies), so a disk hit is promoted and the cell's next request is a memory
// hit. Without wait, a cell in flight is errNotResident. Every resolved cell
// counts exactly once: obs.CellHits on a finished cell, obs.CellCoalesced for
// joining an in-flight one, else resolveCell's count.
func (c *ResultCache) flight(key string, col *obs.Collector, load func() (*MixRun, []byte), sim func() (*MixRun, error), wait bool) (*cellFlight, error) {
	c.mu.Lock()
	for f := c.cells[key]; f != nil; f = c.cells[key] {
		c.clock++
		f.lastUse = c.clock
		finished := f.finished()
		c.mu.Unlock()
		if !finished && !wait {
			return nil, errNotResident
		}
		<-f.done
		if f.err == errNotResident && sim != nil {
			// A resident-only lookup led that flight and found nothing: look
			// again, and simulate unless another caller got there first.
			c.mu.Lock()
			continue
		}
		if f.err != nil {
			return nil, f.err
		}
		if finished {
			col.Add(obs.CellHits, 1)
		} else {
			col.Add(obs.CellCoalesced, 1)
		}
		return f, nil
	}
	c.clock++
	f := &cellFlight{done: make(chan struct{}), lastUse: c.clock}
	c.cells[key] = f
	c.mu.Unlock()

	// An unpublished flight fails with err: resolveCell's, else — a panicking
	// sim, which would otherwise deadlock every waiter — this one, and the
	// panic propagates (runJobs converts it into a job error).
	err := errors.New("exper: cell simulation panicked")
	defer func() {
		if f.run == nil {
			c.fail(key, f, err)
		}
	}()
	run, enc, err := resolveCell(col, load, sim)
	if err != nil {
		return nil, err
	}
	// Publish and account in one critical section. The finished cell is itself
	// evictable, so a cell larger than the whole budget is dropped at once.
	c.mu.Lock()
	f.run, f.enc, f.bytes = run, enc, mixRunBytes(run)+int64(len(enc))
	close(f.done)
	c.curBytes += f.bytes
	c.evictLocked(col)
	col.Set(obs.CellBytes, c.curBytes)
	c.mu.Unlock()
	return f, nil
}

// encoding returns f.enc, built once under the mutex and charged to the budget
// while f is resident (which may evict).
func (c *ResultCache) encoding(key string, f *cellFlight, col *obs.Collector) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.enc == nil {
		enc, err := encodeRun(f.run)
		if err != nil {
			return nil, err
		}
		f.enc, f.bytes = enc, f.bytes+int64(len(enc))
		if c.cells[key] == f {
			c.curBytes += int64(len(enc))
			c.evictLocked(col)
			col.Set(obs.CellBytes, c.curBytes)
		}
	}
	return f.enc, nil
}

// fail publishes err to the flight's waiters and forgets the flight, so a
// later request retries.
func (c *ResultCache) fail(key string, f *cellFlight, err error) {
	f.err = err
	c.mu.Lock()
	delete(c.cells, key)
	c.mu.Unlock()
	close(f.done)
}

// finished reports whether the flight has resolved.
func (f *cellFlight) finished() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// evictLocked drops least-recently-used finished cells until the account
// fits the bound. In-flight cells are never evicted (their bytes are not
// yet accounted, and waiters hold the flight pointer anyway — removal from
// the map never disturbs a waiter, it only makes the next lookup a miss).
func (c *ResultCache) evictLocked(col *obs.Collector) {
	if c.maxBytes <= 0 {
		return
	}
	for c.curBytes > c.maxBytes {
		var victimKey string
		var victim *cellFlight
		for key, f := range c.cells {
			if !f.finished() || f.err != nil {
				continue // in flight, or being removed by its leader
			}
			if victim == nil || f.lastUse < victim.lastUse {
				victim, victimKey = f, key
			}
		}
		if victim == nil {
			return
		}
		delete(c.cells, victimKey)
		c.curBytes -= victim.bytes
		col.Add(obs.CellEvictions, 1)
	}
}

// copyMixRun deep-copies a MixRun. Every field is plain data (slices of
// scalars, a map of objective values), so an element-wise copy severs all
// sharing between the cache's master copy and what callers receive.
func copyMixRun(run *MixRun) *MixRun {
	cp := *run
	cp.Mix.Benchmarks = append([]string(nil), run.Mix.Benchmarks...)
	if run.Shares != nil {
		cp.Shares = append([]float64(nil), run.Shares...)
	}
	cp.IPCAlone = append([]float64(nil), run.IPCAlone...)
	cp.APCAlone = append([]float64(nil), run.APCAlone...)
	if run.EstimatedAPCAlone != nil {
		cp.EstimatedAPCAlone = append([]float64(nil), run.EstimatedAPCAlone...)
	}
	cp.API = append([]float64(nil), run.API...)
	cp.Result.Apps = append([]sim.AppResult(nil), run.Result.Apps...)
	cp.Values = maps.Clone(run.Values)
	return &cp
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
