package exper

import (
	"errors"
	"slices"
	"sync"

	"bwpart/internal/obs"
	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// preparedRegistry shares warmed bases across every simulation entry point
// of one runner: the first request for a mix pays its functional warmup and
// snapshot (single-flight — concurrent requests join the same preparation),
// and every subsequent measurement starts from that warm checkpoint instead
// of re-warming. Entries are refcounted while a caller works from them and
// evicted least-recently-used once the registry exceeds its capacity; an
// evicted mix is simply re-warmed on its next use (correctness is unaffected
// — forked runs are bit-identical to cold runs).
//
// An entry's durable state is its immutable profiles and checkpoint. The
// systems that run cells are fork targets, positioned by restoring the
// checkpoint into them (Restore reinstalls scheduler, caches, cores, and RNG
// streams): the system that was warmed is the first one, a measured system
// comes back through put, and a further one is built from the profiles and
// the checkpoint — never forked from another target, which a worker may be
// running (ForkStream copies live generator state). What the registry holds
// is therefore bounded: cap checkpoints, at most cap + Parallelism - 1 idle
// systems (one resident per entry plus the floating extras below), and one
// system per running cell; if every entry is pinned, cap is exceeded rather
// than blocked on.
type preparedRegistry struct {
	r       *Runner // owner: prepares and forks under its configuration
	mu      sync.Mutex
	cap     int
	clock   int64 // logical LRU clock, bumped per acquire
	entries map[string]*preparedEntry
	// floating holds idle targets beyond their entry's resident one, oldest
	// first, at most Parallelism - 1 across all entries: enough for every
	// worker to run the same mix without rebuilding, however many mixes the
	// registry holds.
	floating []floatingTarget
}

type preparedEntry struct {
	key     string
	refs    int   // callers currently working from this base
	lastUse int64 // registry clock at last acquire

	done chan struct{} // closed when preparation finished
	p    *preparedMix
	err  error

	resident *sim.System // idle fork target kept with the entry; guarded by the registry's mu
}

type floatingTarget struct {
	e   *preparedEntry
	sys *sim.System
}

// acquire returns the prepared entry for mix, preparing it (once, under
// single-flight) if absent, and pins it against eviction. The returned
// release must be called when the caller no longer needs the base.
func (g *preparedRegistry) acquire(mix workload.Mix) (*preparedEntry, func(), error) {
	key := mixKey(mix)
	g.mu.Lock()
	g.clock++
	e, ok := g.entries[key]
	if ok {
		e.refs++
		e.lastUse = g.clock
		g.mu.Unlock()
		<-e.done
		if e.err != nil {
			g.release(e)
			return nil, nil, e.err
		}
		return e, func() { g.release(e) }, nil
	}
	e = &preparedEntry{key: key, refs: 1, lastUse: g.clock, done: make(chan struct{})}
	g.entries[key] = e
	g.evictLocked()
	g.mu.Unlock()

	// A failed preparation — or a panicking one, which must not leave waiters
	// blocked — publishes err and is forgotten, so a later acquire retries.
	err := errors.New("exper: mix preparation panicked")
	defer func() {
		if e.p == nil {
			e.err = err
			g.mu.Lock()
			delete(g.entries, key)
			g.mu.Unlock()
			close(e.done)
		}
	}()
	var warmed *sim.System
	if e.p, warmed, err = g.r.prepareMix(mix); err != nil {
		return nil, nil, err
	}
	g.put(e, warmed)
	close(e.done)
	return e, func() { g.release(e) }, nil
}

func (g *preparedRegistry) release(e *preparedEntry) {
	g.mu.Lock()
	e.refs--
	g.evictLocked()
	g.mu.Unlock()
}

// evictLocked drops least-recently-used unpinned entries, and the idle
// targets held for them, until the registry fits its capacity. Entries still
// being prepared or still referenced are never evicted; if everything is
// pinned the registry temporarily exceeds cap rather than blocking.
func (g *preparedRegistry) evictLocked() {
	for len(g.entries) > g.cap {
		var victim *preparedEntry
		for _, e := range g.entries {
			if e.refs > 0 {
				continue
			}
			select {
			case <-e.done:
			default:
				continue // mid-preparation; its preparer holds no map lock
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(g.entries, victim.key)
		g.floating = slices.DeleteFunc(g.floating, func(f floatingTarget) bool { return f.e == victim })
		g.r.cfg.Obs.Add(obs.PreparedEvictions, 1)
	}
}

// take returns a system positioned at the pinned entry's warm checkpoint: an
// idle target of the entry restored in place when there is one, else a
// system built from the entry's profiles. The caller owns it until put.
func (g *preparedRegistry) take(e *preparedEntry) (*sim.System, error) {
	g.mu.Lock()
	sys := e.resident
	e.resident = nil
	for i := len(g.floating) - 1; sys == nil && i >= 0; i-- {
		if g.floating[i].e == e {
			sys = g.floating[i].sys
			g.floating = slices.Delete(g.floating, i, i+1)
		}
	}
	g.mu.Unlock()
	g.r.cfg.Obs.Add(obs.WarmForks, 1)
	if sys == nil {
		return g.r.forkPrepared(e.p)
	}
	if err := sys.Restore(e.p.cp); err != nil {
		return nil, err
	}
	return sys, nil
}

// put hands a measured system back to the pinned entry it was taken from.
// Whatever state the measurement left behind is irrelevant: the next take
// restores the warm checkpoint into it wholesale. It becomes the entry's
// resident target if that slot is free, else a floating extra, displacing
// the oldest one past the bound.
func (g *preparedRegistry) put(e *preparedEntry, sys *sim.System) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e.resident == nil {
		e.resident = sys
		return
	}
	g.floating = append(g.floating, floatingTarget{e, sys})
	if len(g.floating) > g.r.parallelism()-1 {
		g.floating = slices.Delete(g.floating, 0, 1)
	}
}
