package cache

import (
	"testing"

	"bwpart/internal/mem"
)

func prefetchCfg(depth int) Config {
	cfg := smallCfg()
	cfg.MSHRs = 8
	cfg.PrefetchDepth = depth
	return cfg
}

func TestPrefetchValidate(t *testing.T) {
	cfg := prefetchCfg(2)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.PrefetchDepth = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative depth accepted")
	}
}

func TestPrefetchIssuesNextLines(t *testing.T) {
	low := &fakeLower{delay: 5}
	c, err := New(prefetchCfg(2), low)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0, &mem.Request{Addr: 0x00, Done: func(int64) {}})
	drive(c, 0, 5)
	// Demand fill for line 0 plus prefetches for lines 1 and 2.
	if len(low.reads) != 3 {
		t.Fatalf("lower reads = %v, want 3 (demand + 2 prefetch)", low.reads)
	}
	if got := c.Stats().Prefetches; got != 2 {
		t.Fatalf("prefetches = %d, want 2", got)
	}
	low.deliver()
	// A demand access to a prefetched line must hit and count as useful.
	hBefore := c.Stats().Hits
	c.Access(100, &mem.Request{Addr: 0x40, Done: func(int64) {}})
	drive(c, 100, 5)
	st := c.Stats()
	if st.Hits != hBefore+1 {
		t.Fatal("prefetched line did not hit")
	}
	if st.PrefetchUseful != 1 {
		t.Fatalf("useful = %d, want 1", st.PrefetchUseful)
	}
}

func TestPrefetchMergeCountsUseful(t *testing.T) {
	// A demand access arriving while the prefetch is still in flight merges
	// into its MSHR and counts as useful.
	low := &fakeLower{delay: 1000}
	c, _ := New(prefetchCfg(1), low)
	c.Access(0, &mem.Request{Addr: 0x00, Done: func(int64) {}})
	drive(c, 0, 5)
	done := false
	c.Access(10, &mem.Request{Addr: 0x40, Done: func(int64) { done = true }})
	drive(c, 10, 5)
	st := c.Stats()
	if st.PrefetchUseful != 1 || st.MSHRMerges != 1 {
		t.Fatalf("useful=%d merges=%d, want 1/1", st.PrefetchUseful, st.MSHRMerges)
	}
	low.deliver()
	if !done {
		t.Fatal("merged demand access never completed")
	}
}

func TestPrefetchRespectsMSHRBudget(t *testing.T) {
	cfg := prefetchCfg(8)
	cfg.MSHRs = 3
	low := &fakeLower{delay: 1_000_000}
	c, _ := New(cfg, low)
	c.Access(0, &mem.Request{Addr: 0x00, Done: func(int64) {}})
	if got := len(c.mshrs); got > 3 {
		t.Fatalf("outstanding = %d exceeds MSHRs", got)
	}
	// Demand miss + at most 2 prefetches fit in 3 MSHRs.
	if got := c.Stats().Prefetches; got != 2 {
		t.Fatalf("prefetches = %d, want 2", got)
	}
}

func TestPrefetchSkipsResidentLines(t *testing.T) {
	low := &fakeLower{delay: 5}
	c, _ := New(prefetchCfg(1), low)
	// Install line 1 first.
	c.Access(0, &mem.Request{Addr: 0x40, Done: func(int64) {}})
	drive(c, 0, 5)
	low.deliver()
	p := c.Stats().Prefetches
	// Demand miss on line 0: its next line (1) is resident, no prefetch.
	c.Access(100, &mem.Request{Addr: 0x00, Done: func(int64) {}})
	drive(c, 100, 5)
	if got := c.Stats().Prefetches - p; got != 0 {
		t.Fatalf("prefetched a resident line (%d issued)", got)
	}
}

func TestPrefetchDisabledByDefault(t *testing.T) {
	low := &fakeLower{delay: 5}
	c, _ := New(smallCfg(), low)
	c.Access(0, &mem.Request{Addr: 0x00, Done: func(int64) {}})
	drive(c, 0, 5)
	if len(low.reads) != 1 || c.Stats().Prefetches != 0 {
		t.Fatalf("prefetching active without depth: reads=%v", low.reads)
	}
}

func TestPrefetchImprovesStreamLatency(t *testing.T) {
	// A sequential stream with a slow lower level: prefetch depth 4 must
	// raise the hit rate substantially versus no prefetching.
	run := func(depth int) (hits, misses int64) {
		cfg := Config{Name: "P", SizeBytes: 8192, Ways: 4, LineBytes: 64, HitLatency: 1, MSHRs: 16, PrefetchDepth: depth}
		low := &fakeLower{delay: 40}
		c, err := New(cfg, low)
		if err != nil {
			t.Fatal(err)
		}
		now := int64(0)
		for i := 0; i < 400; i++ {
			c.Access(now, &mem.Request{Addr: uint64(i) * 64, Done: func(int64) {}})
			for k := 0; k < 60; k++ { // stream pace slower than fill latency
				now++
				c.Tick(now)
				low.deliver()
			}
		}
		st := c.Stats()
		return st.Hits, st.Misses
	}
	h0, m0 := run(0)
	h4, m4 := run(4)
	if h0 != 0 || m0 == 0 {
		t.Fatalf("baseline stream should always miss: hits=%d misses=%d", h0, m0)
	}
	if h4 < 300 {
		t.Fatalf("prefetching did not convert stream misses to hits: hits=%d misses=%d", h4, m4)
	}
}
