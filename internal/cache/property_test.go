package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bwpart/internal/mem"
)

// refCache is a trivially correct reference model of a set-associative LRU
// cache (functional only: no timing, no MSHRs). The timed cache, driven so
// that every access completes before the next begins, must produce exactly
// the same hit/miss sequence.
type refCache struct {
	ways  int
	line  uint64
	sets  map[uint64][]uint64 // set -> line addrs in LRU order (front = LRU)
	nsets uint64
}

func newRefCache(cfg Config) *refCache {
	return &refCache{
		ways:  cfg.Ways,
		line:  uint64(cfg.LineBytes),
		sets:  make(map[uint64][]uint64),
		nsets: uint64(cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)),
	}
}

// access returns true on hit and updates LRU state (always allocating).
func (r *refCache) access(addr uint64) bool {
	la := addr / r.line
	set := la % r.nsets
	lines := r.sets[set]
	for i, l := range lines {
		if l == la {
			// Move to MRU position.
			lines = append(append(lines[:i], lines[i+1:]...), la)
			r.sets[set] = lines
			return true
		}
	}
	if len(lines) >= r.ways {
		lines = lines[1:] // evict LRU
	}
	r.sets[set] = append(lines, la)
	return false
}

func TestCacheMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		cfg := Config{Name: "P", SizeBytes: 1024, Ways: 2, LineBytes: 64, HitLatency: 1, MSHRs: 4}
		low := &fakeLower{delay: 1}
		c, err := New(cfg, low)
		if err != nil {
			return false
		}
		ref := newRefCache(cfg)
		r := rand.New(rand.NewSource(seed))
		now := int64(0)
		for i := 0; i < 400; i++ {
			addr := uint64(r.Intn(64)) * 64 // 64 lines over 16 sets: heavy conflict
			wantHit := ref.access(addr)
			before := c.Stats().Hits
			if !c.Access(now, &mem.Request{Addr: addr, Done: func(int64) {}}) {
				return false // MSHRs can't fill up: we drain after each access
			}
			gotHit := c.Stats().Hits > before
			// Drain: run the miss to completion before the next access so
			// the timed cache behaves functionally.
			for k := 0; k < 5; k++ {
				now++
				c.Tick(now)
				low.deliver()
			}
			if gotHit != wantHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheNeverExceedsMSHRLimit(t *testing.T) {
	f := func(seed int64) bool {
		cfg := smallCfg()                   // 2 MSHRs
		low := &fakeLower{delay: 1_000_000} // never completes during the test
		c, err := New(cfg, low)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			addr := uint64(r.Intn(1024)) * 64
			c.Access(int64(i), &mem.Request{Addr: addr, Done: func(int64) {}})
			c.Tick(int64(i))
			if c.OutstandingMisses() > cfg.MSHRs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheStatsBalance(t *testing.T) {
	// hits + misses + merges + rejects == total accesses, always.
	cfg := smallCfg()
	low := &fakeLower{delay: 3}
	c, _ := New(cfg, low)
	r := rand.New(rand.NewSource(11))
	var accesses int64
	for i := 0; i < 2000; i++ {
		addr := uint64(r.Intn(256)) * 64
		c.Access(int64(i), &mem.Request{Addr: addr, Write: r.Intn(4) == 0, Done: func(int64) {}})
		accesses++
		c.Tick(int64(i))
		if i%3 == 0 {
			low.deliver()
		}
	}
	st := c.Stats()
	if st.Hits+st.Misses+st.MSHRMerges+st.Rejects != accesses {
		t.Fatalf("accounting leak: %+v vs %d accesses", st, accesses)
	}
}

// checkRanks fails unless every set of e ranks its ways as a permutation of
// 0..Ways-1 in which the empty ways hold the lowest ranks in index order:
// the invariant that makes the line of rank 0 the first empty way, else the
// least recently used line (lruVictim).
func checkRanks(t *testing.T, e *engine) {
	t.Helper()
	for base := 0; base < len(e.tags); base += e.cfg.Ways {
		seen := make([]bool, e.cfg.Ways)
		empty := 0
		for w := range e.cfg.Ways {
			r := int(e.meta[base+w] >> metaRankShift)
			if r >= e.cfg.Ways || seen[r] {
				t.Fatalf("set %d: ranks %v are not a permutation", base/e.cfg.Ways, e.meta[base:base+e.cfg.Ways])
			}
			seen[r] = true
			if e.tags[base+w] == invalidTag {
				if r != empty {
					t.Fatalf("set %d: empty way %d has rank %d, want %d", base/e.cfg.Ways, w, r, empty)
				}
				empty++
			}
		}
	}
}

// TestRanksStayPermutations drives both policies' fills and hits — functional
// touches into a cache that starts empty, with the shared cache's quotas
// re-partitioned along the way — and checks the rank invariant after each.
func TestRanksStayPermutations(t *testing.T) {
	private, err := New(sharedCfg(), &fakeLower{})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewShared(sharedCfg(), 3, []int{2, 3, 3}, &fakeLower{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for i := range 3000 {
		addr, write := uint64(r.Intn(160))*64, r.Intn(3) == 0
		private.Touch(addr, write)
		shared.TouchAs(r.Intn(3), addr, write)
		if i%500 == 499 {
			if err := shared.SetQuota([]int{1 + r.Intn(2), 1 + r.Intn(3), 1 + r.Intn(3)}); err != nil {
				t.Fatal(err)
			}
		}
		checkRanks(t, &private.engine)
		checkRanks(t, &shared.engine)
	}
}
