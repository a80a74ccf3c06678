package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/cache_digests.json and testdata/kernel_stats.json from the current code")

// cacheDigestTopos are the cache hierarchies the digests pin: the private
// L2s with and without the next-line prefetcher, and the shared
// way-partitioned L2 under two quotas. The uneven quota runs with a quarter
// of the miss registers so the per-app MSHR cap refuses accesses.
var cacheDigestTopos = []struct {
	name     string
	prefetch int
	shared   bool
	quota    []int // nil splits the ways evenly
	l2MSHRs  int   // overrides Config.L2.MSHRs when positive
}{
	{name: "private"},
	{name: "private+prefetch2", prefetch: 2},
	{name: "shared/even", shared: true},
	{name: "shared/1-3-2-2", shared: true, quota: []int{1, 3, 2, 2}, l2MSHRs: 4},
}

// kernelLines renders ks as one line for the run and one per component, so
// a re-record diffs by component; a core's line adds its run-ahead counters
// when it has any (wake kernel).
func kernelLines(ks KernelStats) []string {
	out := []string{fmt.Sprintf("cycles %d ticked %d leapt %d", ks.Cycles, ks.Ticked, ks.Leapt)}
	for _, c := range ks.Components {
		line := fmt.Sprintf("%s ticks %d slept %d pokes %d", c.Name, c.Ticks, c.Slept, c.Pokes)
		if sp := c.Spans; sp != (SpanStops{}) {
			line += fmt.Sprintf(" ahead %d spans miss %d stall %d refresh %d horizon %d end %d",
				c.Ahead, sp.Miss, sp.Stall, sp.Refresh, sp.Horizon, sp.RunEnd)
		}
		out = append(out, line)
	}
	return out
}

// cacheDigest runs one system straight through — functional warmup, a
// settle phase, then a measurement window. It hashes everything the cache
// hierarchy can influence — the windowed Result and every cache's counters —
// and returns that behaviour digest with the run's kernel counters.
func cacheDigest(t *testing.T, run loop, cfg Config) (string, []string) {
	t.Helper()
	const settle, measure = 6_000, 40_003
	sys, err := New(cfg, mustProfiles(t, "lbm", "milc", "soplex", "povray"))
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup()
	run(sys, settle)
	sys.ResetStats()
	run(sys, measure)

	h := sha256.New()
	fmt.Fprintf(h, "result %+v\n", sys.Results())
	var w Counters
	sys.WindowInto(&w)
	for i, a := range w.Apps {
		fmt.Fprintf(h, "l1.%d %+v\nl2.%d %+v\n", i, a.L1, i, a.L2)
	}
	return hex.EncodeToString(h.Sum(nil)), kernelLines(sys.KernelStats())
}

// readDigestFile decodes one of the testdata maps into want.
func readDigestFile(t *testing.T, path string, want any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, want); err != nil {
		t.Fatal(err)
	}
}

// writeDigestFile rewrites one of the testdata maps (keys sorted).
func writeDigestFile(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheDigests pins the cache hierarchy's behaviour bit for bit and the
// kernel's work separately. Behaviour: one digest per topology and seed in
// testdata/cache_digests.json, which the naive loop and the wake scheduler
// must both reproduce (first recorded while Cache and SharedCache were still
// two separate implementations, and while the window was still split by a
// mid-run Snapshot and Restore). Work: the run's KernelStats per kernel in
// testdata/kernel_stats.json, so a pure scheduling change moves only that
// file. bench/golden.json pins only the private topology and is
// not tier-1. `go test ./internal/sim -run TestCacheDigests -update`
// rewrites both files; re-record the behaviour file only for an intended
// behaviour change.
func TestCacheDigests(t *testing.T) {
	const behaviourPath, kernelPath = "testdata/cache_digests.json", "testdata/kernel_stats.json"
	var want map[string]string
	var wantKS map[string][]string
	if !*updateDigests {
		readDigestFile(t, behaviourPath, &want)
		readDigestFile(t, kernelPath, &wantKS)
	}
	got := map[string]string{}
	gotKS := map[string][]string{}
	kernels := []struct {
		name string
		run  loop
	}{{"naive", naiveLoop}, {"wake", wakeLoop}}
	for _, topo := range cacheDigestTopos {
		for _, kern := range kernels {
			for seed := int64(1); seed <= 3; seed++ {
				bkey := fmt.Sprintf("%s/seed=%d", topo.name, seed)
				key := fmt.Sprintf("%s/%s/seed=%d", topo.name, kern.name, seed)
				t.Run(key, func(t *testing.T) {
					cfg := fastCfg()
					cfg.Seed = seed
					cfg.L2PrefetchDepth = topo.prefetch
					cfg.SharedL2 = topo.shared
					cfg.L2WayQuota = topo.quota
					if topo.l2MSHRs > 0 {
						cfg.L2.MSHRs = topo.l2MSHRs
					}
					digest, ks := cacheDigest(t, kern.run, cfg)
					if prev, ok := got[bkey]; ok && prev != digest {
						t.Errorf("behaviour digest %s differs from the other kernel's %s", digest, prev)
					}
					got[bkey], gotKS[key] = digest, ks
					if *updateDigests {
						return
					}
					if digest != want[bkey] {
						t.Errorf("behaviour digest %s, recorded %q", digest, want[bkey])
					}
					if w, ok := wantKS[key]; !ok || !reflect.DeepEqual(ks, w) {
						t.Errorf("kernel stats\ngot      %q\nrecorded %q", ks, w)
					}
				})
			}
		}
	}
	if *updateDigests {
		writeDigestFile(t, behaviourPath, got)
		writeDigestFile(t, kernelPath, gotKS)
		return
	}
	if len(want) != len(got) || len(wantKS) != len(gotKS) {
		t.Errorf("testdata has %d behaviour digests and %d kernel records, the test computes %d and %d",
			len(want), len(wantKS), len(got), len(gotKS))
	}
}
