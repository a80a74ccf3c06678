package exper

import (
	"context"
	"sync"
	"testing"

	"bwpart/internal/obs"
	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// setCap overrides the warm-base LRU bound (preparedCap in production) so a
// test can force evictions with two or three mixes.
func (g *preparedRegistry) setCap(n int) { g.trim(int64(n), g.r.cfg.Obs) }

// held counts what the registry retains: entries (one checkpoint each, and
// nothing else) and outstanding pins.
func (g *preparedRegistry) held() (entries, pins int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, e := range g.entries {
		pins += e.pins
	}
	return len(g.entries), pins
}

// TestPreparedRegistryBound pins the registry's memory contract on the grid
// that outgrows it: after the 14-mix x 7-scheme Table IV grid at Parallelism
// 2 it holds preparedCap checkpoints with nothing left pinned, and every
// cell ran on a system forked from one. An entry has no system field, so
// zero idle systems holds by construction.
func TestPreparedRegistryBound(t *testing.T) {
	cfg := memoTestConfig()
	cfg.Parallelism = 2
	cfg.Obs = obs.NewCollector()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mixes, schemes := workload.AllMixes(), append([]string{NoPartitioning}, Figure2Schemes()...)
	if _, err := r.RunGrid(context.Background(), mixes, schemes); err != nil {
		t.Fatal(err)
	}
	if entries, pins := r.prepared.held(); entries != preparedCap || pins != 0 {
		t.Errorf("registry holds %d entries with %d pins, want %d and 0", entries, pins, preparedCap)
	}
	s := cfg.Obs.Snapshot()
	if cells := int64(len(mixes) * len(schemes)); s.Cache.WarmForks != cells || s.Jobs.Total != cells {
		t.Errorf("warm forks %d, jobs %d; want %d each (job counters count cells only)",
			s.Cache.WarmForks, s.Jobs.Total, cells)
	}
	if got, want := s.Cache.PreparedEvictions, int64(len(mixes)-preparedCap); got != want {
		t.Errorf("%d evictions, want %d", got, want)
	}
}

// TestPreparedRegistryHammer drives acquire / fork / release from four
// workers over three mixes at capacity two, so entries are evicted and
// re-warmed while others fork from them. A system must never be in two
// holders' hands at once (each holder also runs it, so -race sees any state
// shared through a checkpoint), and the bound must hold when the dust
// settles.
func TestPreparedRegistryHammer(t *testing.T) {
	const workers, rounds = 4, 12
	cfg := memoTestConfig()
	cfg.Parallelism = workers
	cfg.Obs = obs.NewCollector()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 2
	r.prepared.setCap(capacity)
	mixes := workload.HeteroMixes()[:3]
	var mu sync.Mutex
	inHand := map[*sim.System]bool{}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p, release, err := r.prepared.acquire(r.own, mixes[(w+i)%len(mixes)])
				if err != nil {
					t.Error(err)
					return
				}
				sys, err := r.forkPrepared(p)
				if err != nil {
					t.Error(err)
					release()
					return
				}
				mu.Lock()
				if inHand[sys] {
					t.Errorf("worker %d round %d: system handed to two holders", w, i)
				}
				inHand[sys] = true
				mu.Unlock()
				if sys.Now() != 0 {
					t.Errorf("worker %d round %d: a fork of the warm point at cycle %d", w, i, sys.Now())
				}
				sys.Run(500)
				mu.Lock()
				delete(inHand, sys)
				mu.Unlock()
				release()
			}
		}(w)
	}
	wg.Wait()
	if entries, pins := r.prepared.held(); entries > capacity || pins != 0 {
		t.Errorf("registry holds %d entries with %d pins; want at most %d and 0", entries, pins, capacity)
	}
	if cfg.Obs.Snapshot().Cache.PreparedEvictions == 0 {
		t.Error("no eviction happened: the hammer did not exercise evict")
	}
}
