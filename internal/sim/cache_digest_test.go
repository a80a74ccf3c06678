package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// cacheDigestTopos are the cache hierarchies the digests pin: the private
// L2s with and without the next-line prefetcher, and the shared
// way-partitioned L2 under three quotas (the last re-partitioned mid-run, so
// lines sit over quota while victims are chosen). The middle quota runs with
// a quarter of the miss registers so the per-app MSHR cap refuses accesses.
var cacheDigestTopos = []struct {
	name     string
	prefetch int
	shared   bool
	quota    []int // nil splits the ways evenly
	requota  []int // SetQuota at the start of the window
	l2MSHRs  int   // overrides Config.L2.MSHRs when positive
}{
	{name: "private"},
	{name: "private+prefetch2", prefetch: 2},
	{name: "shared/even", shared: true},
	{name: "shared/1-3-2-2", shared: true, quota: []int{1, 3, 2, 2}, l2MSHRs: 4},
	{name: "shared/5-1-1-1-requota", shared: true, quota: []int{5, 1, 1, 1}, requota: []int{2, 2, 1, 3}},
}

// cacheDigest runs one system — functional warmup, a settle phase, then a
// measurement window sliced in the middle by Snapshot and a Restore into a
// freshly built system that finishes it — and hashes everything the cache
// hierarchy can influence: the windowed Result, every cache's counters, and
// the kernel counters of both halves.
func cacheDigest(t *testing.T, cfg Config, requota []int) string {
	t.Helper()
	const settle, first, rest = 6_000, 17_003, 23_000
	names := []string{"lbm", "milc", "soplex", "povray"}
	sys, err := New(cfg, mustProfiles(t, names...))
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup()
	sys.Run(settle)
	sys.ResetStats()
	if requota != nil {
		if err := sys.SharedL2().SetQuota(requota); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run(first)
	cp, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg, mustProfiles(t, names...))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(cp); err != nil {
		t.Fatal(err)
	}
	fresh.Run(rest)

	h := sha256.New()
	fmt.Fprintf(h, "result %+v\n", fresh.Results())
	for i := range fresh.cores {
		fmt.Fprintf(h, "l1.%d %+v\n", i, fresh.l1s[i].Stats())
		if fresh.sharedL2 != nil {
			fmt.Fprintf(h, "l2.%d %+v\n", i, fresh.sharedL2.StatsFor(i))
		} else {
			fmt.Fprintf(h, "l2.%d %+v\n", i, fresh.l2s[i].Stats())
		}
	}
	fmt.Fprintf(h, "kernel before %+v\n", sys.KernelStats())
	fmt.Fprintf(h, "kernel after %+v\n", fresh.KernelStats())
	return hex.EncodeToString(h.Sum(nil))
}

// TestCacheDigests pins the cache hierarchy's behaviour bit for bit: each
// digest must equal the one in testdata/cache_digests.json, recorded while
// Cache and SharedCache were still two separate implementations.
// bench/golden.json pins only the private topology and is not tier-1. A
// mismatch prints the new digest; re-record only for an intended behaviour
// change.
func TestCacheDigests(t *testing.T) {
	raw, err := os.ReadFile("testdata/cache_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	kernels := []struct {
		name string
		k    Kernel
	}{{"naive", KernelNaive}, {"wake", KernelCycleSkipping}}
	n := 0
	for _, topo := range cacheDigestTopos {
		for _, kern := range kernels {
			for seed := int64(1); seed <= 3; seed++ {
				key := fmt.Sprintf("%s/%s/seed=%d", topo.name, kern.name, seed)
				n++
				t.Run(key, func(t *testing.T) {
					cfg := fastCfg()
					cfg.Kernel = kern.k
					cfg.Seed = seed
					cfg.L2PrefetchDepth = topo.prefetch
					cfg.SharedL2 = topo.shared
					cfg.L2WayQuota = topo.quota
					if topo.l2MSHRs > 0 {
						cfg.L2.MSHRs = topo.l2MSHRs
					}
					if got := cacheDigest(t, cfg, topo.requota); got != want[key] {
						t.Errorf("digest %s, recorded %q", got, want[key])
					}
				})
			}
		}
	}
	if len(want) != n {
		t.Errorf("testdata/cache_digests.json has %d digests, the test computes %d", len(want), n)
	}
}
