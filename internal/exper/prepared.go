package exper

import (
	"errors"
	"sync"

	"bwpart/internal/obs"
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
// An entry is its immutable profiles and checkpoint, nothing else: the system
// that was warmed is dropped once snapshotted, and every cell runs on a
// system of its own built from the profiles and restored from the checkpoint
// (Runner.forkPrepared). What the registry holds is therefore cap
// checkpoints and no system; the only systems alive are the ones cells are
// running. If every entry is pinned, cap is exceeded rather than blocked on.
type preparedRegistry struct {
	r       *Runner // owner: prepares and forks under its configuration
	mu      sync.Mutex
	cap     int
	clock   int64 // logical LRU clock, bumped per acquire
	entries map[string]*preparedEntry
}

type preparedEntry struct {
	key     string
	refs    int   // callers currently working from this base
	lastUse int64 // registry clock at last acquire

	done chan struct{} // closed when preparation finished
	p    *preparedMix
	err  error
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
	if e.p, _, err = g.r.prepareMix(mix); err != nil {
		return nil, nil, err
	}
	close(e.done)
	return e, func() { g.release(e) }, nil
}

func (g *preparedRegistry) release(e *preparedEntry) {
	g.mu.Lock()
	e.refs--
	g.evictLocked()
	g.mu.Unlock()
}

// evictLocked drops least-recently-used unpinned entries until the registry
// fits its capacity. Entries still being prepared or still referenced are
// never evicted; if everything is pinned the registry temporarily exceeds cap
// rather than blocking.
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
		g.r.cfg.Obs.Add(obs.PreparedEvictions, 1)
	}
}
