package exper

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"bwpart/internal/obs"
	"bwpart/internal/workload"
)

// TestResultCacheByteAccounting pins the byte account of an unbounded
// cache: every finished cell adds its estimated footprint, and the gauge
// the collector sees matches the cache's own account.
func TestResultCacheByteAccounting(t *testing.T) {
	cfg := memoTestConfig()
	cfg.Obs = obs.NewCollector()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"equal", "square-root"} {
		if _, err := r.RunMix(mix, scheme); err != nil {
			t.Fatal(err)
		}
	}
	cache := r.Config().Cache
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d cells, want 2", cache.Len())
	}
	if cache.Bytes() <= 0 {
		t.Fatalf("cache bytes = %d, want > 0", cache.Bytes())
	}
	s := cfg.Obs.Snapshot()
	if s.Cache.Bytes != cache.Bytes() {
		t.Fatalf("collector gauge %d != cache account %d", s.Cache.Bytes, cache.Bytes())
	}
	if s.Cache.Evictions != 0 {
		t.Fatalf("unbounded cache evicted %d cells", s.Cache.Evictions)
	}
}

// TestResultCacheLRUBound squeezes the cache to roughly one cell: inserting
// a second cell evicts the least-recently-used one, the evicted cell's next
// request is a fresh miss (re-simulated), and every result — before and
// after eviction — stays DeepEqual to a cold reference run.
func TestResultCacheLRUBound(t *testing.T) {
	cfg := memoTestConfig()
	cfg.Obs = obs.NewCollector()
	probe, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	// Size the bound off a real cell so the test tracks MixRun's shape:
	// room for one cell plus slack, never two.
	first, err := probe.RunMix(mix, "equal")
	if err != nil {
		t.Fatal(err)
	}
	oneCell := mixRunBytes(first)

	cfg2 := memoTestConfig()
	cfg2.Obs = obs.NewCollector()
	cfg2.CacheBytes = oneCell + oneCell/2
	r, err := NewRunner(cfg2)
	if err != nil {
		t.Fatal(err)
	}

	coldCfg := memoTestConfig()
	coldCfg.NoMemoize = true
	cold, err := NewRunner(coldCfg)
	if err != nil {
		t.Fatal(err)
	}

	steps := []string{"equal", "square-root", "equal"}
	for i, scheme := range steps {
		got, err := r.RunMix(mix, scheme)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.RunMix(mix, scheme)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("step %d (%s): bounded-cache cell diverges from cold run", i, scheme)
		}
	}
	s := cfg2.Obs.Snapshot()
	// equal inserted; square-root inserted evicting equal; equal again is a
	// fresh miss evicting square-root: 3 misses, 0 hits, 2 evictions.
	if s.Cache.Misses != 3 || s.Cache.Hits != 0 {
		t.Errorf("misses/hits = %d/%d, want 3/0 (eviction should force a re-simulation)", s.Cache.Misses, s.Cache.Hits)
	}
	if s.Cache.Evictions != 2 {
		t.Errorf("recorded %d evictions, want 2", s.Cache.Evictions)
	}
	if got, bound := r.Config().Cache.Bytes(), cfg2.CacheBytes; got > bound {
		t.Errorf("resident bytes %d exceed bound %d", got, bound)
	}
	if s.Cache.Bytes > cfg2.CacheBytes {
		t.Errorf("gauge %d exceeds bound %d", s.Cache.Bytes, cfg2.CacheBytes)
	}
}

// TestResultCacheSetMaxBytesShrink shrinks a populated cache's bound in
// place (the service applies Config.CacheBytes to a shared cache) and
// expects immediate eviction down to the new budget.
func TestResultCacheSetMaxBytesShrink(t *testing.T) {
	cfg := memoTestConfig()
	cfg.Obs = obs.NewCollector()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"equal", "square-root", "priority-apc"} {
		if _, err := r.RunMix(mix, scheme); err != nil {
			t.Fatal(err)
		}
	}
	cache := r.Config().Cache
	if cache.Len() != 3 {
		t.Fatalf("cache holds %d cells, want 3", cache.Len())
	}
	cache.SetMaxBytes(1) // smaller than any cell: everything must go
	if cache.Len() != 0 || cache.Bytes() != 0 {
		t.Fatalf("after shrink: %d cells, %d bytes, want 0/0", cache.Len(), cache.Bytes())
	}
	// The cache still works after a full purge.
	if _, err := r.RunMix(mix, "equal"); err != nil {
		t.Fatal(err)
	}
}

// accounted sums the sizes of the finished cells in the map, which must be
// the cache's byte account at every quiescent point.
func accounted(c *ResultCache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, e := range c.entries {
		if e.finished() {
			n += e.cost
		}
	}
	if n != c.cost {
		return -1
	}
	return n
}

// TestResultCacheBoundCoversEncodings: a hit's stored encoding is charged to
// the byte budget when it is first built — once — so a cache at its bound
// evicts to make room for it, and an evicted cell's encoding leaves the
// account with it.
func TestResultCacheBoundCoversEncodings(t *testing.T) {
	cfg := memoTestConfig()
	cfg.Obs = obs.NewCollector()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	runBytes := map[string]int64{}
	for _, scheme := range []string{"equal", "square-root", "priority-apc"} {
		run, err := r.RunMix(mix, scheme)
		if err != nil {
			t.Fatal(err)
		}
		if want[scheme], err = encodeRun(run); err != nil {
			t.Fatal(err)
		}
		runBytes[scheme] = mixRunBytes(run)
	}
	cell := func(scheme string) int64 { return runBytes[scheme] + int64(len(want[scheme])) }
	cache := r.Config().Cache
	// Room for every run and one byte short of two encodings.
	bound := cache.Bytes() + int64(len(want["equal"])+len(want["square-root"])) - 1
	cache.SetMaxBytes(bound)
	for _, scheme := range []string{"equal", "square-root", "equal"} {
		got, err := r.ResidentJSON(GridCell{Mix: mix, Scheme: scheme})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if !bytes.Equal(got, want[scheme]) {
			t.Errorf("%s: stored encoding differs from encoding RunMix's run", scheme)
		}
		if b := accounted(cache); b < 0 || b > bound {
			t.Fatalf("after a %s hit: account %d (-1: not the sum of the resident cells), bound %d", scheme, b, bound)
		}
	}
	// square-root's encoding pushed out priority-apc, the least recently
	// used; equal's second hit reused its encoding.
	if got, want := cache.Bytes(), cell("equal")+cell("square-root"); cache.Len() != 2 || got != want {
		t.Errorf("after the hits: %d cells, %d bytes; want 2 cells, %d bytes", cache.Len(), got, want)
	}
	if s := cfg.Obs.Snapshot(); s.Cache.Evictions != 1 || s.Cache.Bytes != cache.Bytes() || s.Cache.Hits != 3 {
		t.Errorf("evictions %d, hits %d, gauge %d; want 1, 3 and %d", s.Cache.Evictions, s.Cache.Hits, s.Cache.Bytes, cache.Bytes())
	}
	cache.SetMaxBytes(cache.Bytes() - 1)
	if got, want := cache.Bytes(), cell("equal"); cache.Len() != 1 || got != want {
		t.Errorf("after evicting square-root: %d cells, %d bytes; want 1 cell, %d bytes", cache.Len(), got, want)
	}
	cache.SetMaxBytes(1)
	if cache.Len() != 0 || cache.Bytes() != 0 {
		t.Errorf("after a purge: %d cells, %d bytes, want 0/0", cache.Len(), cache.Bytes())
	}
}

// TestResultCacheConcurrentHitsEvictResize races hits that build and read
// encodings against evictions and SetMaxBytes on one key set (run it under
// -race): every hit gets its cell's exact encoding, and at rest the account
// is the sum of the resident cells.
func TestResultCacheConcurrentHitsEvictResize(t *testing.T) {
	c := NewResultCache()
	col := obs.NewCollector()
	const keys = 8
	runs := make([]*MixRun, keys)
	want := make([][]byte, keys)
	for i := range runs {
		runs[i] = &MixRun{Mix: workload.Mix{Name: fmt.Sprintf("mix-%d", i), Benchmarks: []string{"mcf"}}, Scheme: "equal", IPCAlone: []float64{float64(i)}}
		want[i] = must2(encodeRun(runs[i]))
	}
	oneCell := mixRunBytes(runs[0]) + int64(len(want[0]))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 300; n++ {
				i := (g + n) % keys
				key := fmt.Sprint(i)
				// Odd keys arrive with their bytes, as a disk hit does.
				load := func() (*MixRun, []byte) {
					if i%2 == 1 {
						return runs[i], append([]byte(nil), want[i]...)
					}
					return runs[i], nil
				}
				f, err := c.flight(key, col, load, nil, true)
				if err != nil {
					t.Error(err)
					return
				}
				enc, err := c.encoding(key, f, col)
				if err != nil || !bytes.Equal(enc, want[i]) {
					t.Errorf("key %d: encoding %q (%v)", i, enc, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 300; n++ {
			c.SetMaxBytes(oneCell * int64(1+n%5))
		}
	}()
	wg.Wait()
	if b := accounted(c); b < 0 || b > 5*oneCell {
		t.Errorf("account %d at rest (-1: not the sum of the resident cells)", b)
	}
	c.SetMaxBytes(1)
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("after a purge: %d cells, %d bytes, want 0/0", c.Len(), c.Bytes())
	}
}

func must2(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}
