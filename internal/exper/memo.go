package exper

import (
	"errors"
	"sync"

	"bwpart/internal/obs"
)

// memo is the engine's one single-flight table: a runner's alone profiles,
// its warm bases and the result cache's finished cells are instances of it,
// differing in what an entry costs, the bound on the summed cost and whether
// callers pin what they get.
//
// get builds a key's value at most once across concurrent callers: the first
// caller leads the build, later ones join it, and once the value is published
// every get is a hit. A failed build is forgotten, so the next get builds
// again; a panicking one fails its waiters with errBuildPanicked and the panic
// goes on up the leader's stack. Whenever the summed cost of the finished
// entries is over the bound — after a build is published, a pin released or
// the bound set — the least recently used finished entries nobody pins are
// evicted. Eviction only forgets the key: a caller holding the entry keeps it,
// and the key's next get builds it again.
type memo[V any] struct {
	mu      sync.Mutex
	entries map[string]*memoEntry[V]
	bound   int64 // 0 = unbounded
	cost    int64 // summed cost of the finished entries in the map
	clock   int64 // logical LRU clock, bumped per get
	// trimmed, when set, gets each trim's eviction count and the summed cost
	// it left, under the lock, with the collector of the call that trimmed.
	trimmed func(col *obs.Collector, evicted, cost int64)
}

// memoEntry is one key's value. done is closed once val, err and cost are
// final; an entry in the map with done closed has err == nil. cost, pins and
// lastUse are owned by the memo's mutex.
type memoEntry[V any] struct {
	done    chan struct{}
	val     V
	err     error
	cost    int64
	pins    int
	lastUse int64
}

// found says how get came by its entry.
type found int

const (
	led       found = iota // the call built it
	hit                    // it was finished
	coalesced              // the call joined a build in flight
)

// errNotResident fails a get that will not wait for a build in flight, and a
// resident-only cell lookup for a cell that is in neither tier.
var errNotResident = errors.New("exper: cell not resident")

// errBuildPanicked is what the waiters of a panicking build get.
var errBuildPanicked = errors.New("exper: memoized build panicked")

func newMemo[V any](bound int64, trimmed func(col *obs.Collector, evicted, cost int64)) memo[V] {
	return memo[V]{entries: make(map[string]*memoEntry[V]), bound: bound, trimmed: trimmed}
}

// get returns key's entry, building it (its value and cost) when the key is
// absent; a published build trims on col. Without wait, a build in flight is
// errNotResident. With pin, a returned entry is pinned against eviction until
// unpin.
func (m *memo[V]) get(key string, col *obs.Collector, wait, pin bool, build func() (V, int64, error)) (*memoEntry[V], found, error) {
	m.mu.Lock()
	m.clock++
	if e := m.entries[key]; e != nil {
		e.lastUse = m.clock
		how := hit
		if !e.finished() {
			if how = coalesced; !wait {
				m.mu.Unlock()
				return nil, how, errNotResident
			}
		}
		if pin {
			e.pins++ // a failed build leaves the map, pins and all
		}
		m.mu.Unlock()
		<-e.done
		if e.err != nil {
			return nil, how, e.err
		}
		return e, how, nil
	}
	e := &memoEntry[V]{done: make(chan struct{}), lastUse: m.clock, err: errBuildPanicked}
	if pin {
		e.pins = 1
	}
	m.entries[key] = e
	m.mu.Unlock()

	// e.err stays errBuildPanicked unless build returns, so a panicking build
	// is forgotten and published to its waiters before the panic goes on.
	defer func() {
		if e.err != nil {
			m.mu.Lock()
			delete(m.entries, key)
			m.mu.Unlock()
			close(e.done)
		}
	}()
	val, cost, err := build()
	if err != nil {
		e.err = err
		return nil, led, err
	}
	m.mu.Lock()
	e.val, e.cost, e.err = val, cost, nil
	m.cost += cost
	close(e.done)
	m.trimLocked(col) // the new entry, if unpinned, may be the one to go
	m.mu.Unlock()
	return e, led, nil
}

// unpin releases a pin get took, then trims on col.
func (m *memo[V]) unpin(e *memoEntry[V], col *obs.Collector) {
	m.mu.Lock()
	e.pins--
	m.trimLocked(col)
	m.mu.Unlock()
}

// trim sets the bound (0 = unbounded) and trims to it on col.
func (m *memo[V]) trim(bound int64, col *obs.Collector) {
	m.mu.Lock()
	m.bound = bound
	m.trimLocked(col)
	m.mu.Unlock()
}

// trimLocked evicts least-recently-used finished, unpinned entries while the
// summed cost is over the bound, and reports to m.trimmed.
func (m *memo[V]) trimLocked(col *obs.Collector) {
	var evicted int64
	for m.bound > 0 && m.cost > m.bound {
		var victimKey string
		var victim *memoEntry[V]
		for key, e := range m.entries {
			if e.pins == 0 && e.finished() && (victim == nil || e.lastUse < victim.lastUse) {
				victim, victimKey = e, key
			}
		}
		if victim == nil {
			break // the rest is pinned or in flight: over the bound until an unpin
		}
		delete(m.entries, victimKey)
		m.cost -= victim.cost
		evicted++
	}
	if m.trimmed != nil {
		m.trimmed(col, evicted, m.cost)
	}
}

// finished reports whether the entry's build has returned.
func (e *memoEntry[V]) finished() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}
