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
			if len(c.mshrs) > cfg.MSHRs {
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
// touches into a cache that starts empty — and checks the rank invariant
// after each.
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
	for range 3000 {
		addr, write := uint64(r.Intn(160))*64, r.Intn(3) == 0
		private.Touch(addr, write)
		shared.TouchAs(r.Intn(3), addr, write)
		checkRanks(t, &private.engine)
		checkRanks(t, &shared.engine)
	}
}

// occupancies returns every set's line count per application.
func occupancies(c *SharedCache) [][]int {
	occ := make([][]int, len(c.tags)/c.cfg.Ways)
	for s := range occ {
		occ[s] = make([]int, c.numApps)
		for app := range occ[s] {
			occ[s][app] = c.occupancy(s*c.cfg.Ways, app)
		}
	}
	return occ
}

// TestSharedOccupancyWithinQuota pins the way partition's invariant: a fill
// takes an empty way or a line of the filling application, so no
// application's line count in a set ever falls, and none ever exceeds its
// quota. The bound is what keeps victimFor's two cases total: a below-quota
// application always finds an empty way (the quotas sum to at most Ways), and
// an at-quota one always has a line of its own. Functional touches and timed
// accesses in random order drive a cache built by NewShared, then one built by
// SharedFromState from its snapshot.
func TestSharedOccupancyWithinQuota(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		quota := []int{1 + r.Intn(4), 1 + r.Intn(2), 1 + r.Intn(2)}
		low := &fakeLower{delay: 5}
		c, err := NewShared(sharedCfg(), len(quota), quota, low)
		if err != nil {
			t.Fatal(err)
		}
		now, occ := int64(0), occupancies(c)
		check := func(what string) {
			t.Helper()
			next := occupancies(c)
			for s := range next {
				for app, n := range next[s] {
					if n > quota[app] || n < occ[s][app] {
						t.Fatalf("seed %d, quota %v, %s: set %d holds %d lines of app %d (%d before)", seed, quota, what, s, n, app, occ[s][app])
					}
				}
			}
			occ = next
		}
		// steps touches or accesses a random line per step, and delivers
		// the lower level's answers (the fills) every third step on average.
		// A touch waits for an idle cache: warmup never overlaps a miss.
		steps := func(n int, what string) {
			for range n {
				app, addr, write := r.Intn(len(quota)), uint64(r.Intn(160))*64, r.Intn(3) == 0
				if r.Intn(2) == 0 && c.Idle() && len(low.pending) == 0 {
					c.TouchAs(app, addr, write)
				} else {
					c.Access(now, &mem.Request{App: app, Addr: addr, Write: write, Done: func(int64) {}})
				}
				for end := now + 1 + int64(r.Intn(4)); now < end; now++ {
					c.Tick(now)
				}
				if r.Intn(3) == 0 {
					low.deliver()
				}
				check(what)
			}
		}
		steps(1500, "built empty")
		for ; !c.Idle() || len(low.pending) > 0; now++ {
			c.Tick(now)
			low.deliver()
		}
		check("settled")
		low = &fakeLower{delay: 5}
		if c, err = SharedFromState(c.Snapshot(), sharedCfg(), len(quota), low); err != nil {
			t.Fatal(err)
		}
		check("restored")
		steps(1500, "restored")
	}
}
