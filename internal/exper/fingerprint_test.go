package exper

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"bwpart/internal/dram"
	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// TestFingerprintCanonical pins the fingerprint's two contracts: identical
// configurations collide (stably, across Runner instances) and every
// result-affecting knob separates.
func TestFingerprintCanonical(t *testing.T) {
	base := configFingerprint(Quick())
	if again := configFingerprint(Quick()); again != base {
		t.Errorf("identical configs fingerprint differently: %s vs %s", base, again)
	}
	if len(base) != 64 {
		t.Errorf("fingerprint is not a sha256 hex digest: %q", base)
	}

	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"seed", func(c *Config) { c.Seed++ }},
		{"measure-cycles", func(c *Config) { c.MeasureCycles++ }},
		{"settle-cycles", func(c *Config) { c.SettleCycles++ }},
		{"profile-cycles", func(c *Config) { c.ProfileCycles++ }},
		{"dram-bus", func(c *Config) { c.Sim.DRAM.BusMHz *= 2 }},
		{"dram-policy", func(c *Config) { c.Sim.DRAM.Policy = dram.OpenPage }},
		{"l2-size", func(c *Config) { c.Sim.L2.SizeBytes *= 2 }},
		{"core-width", func(c *Config) { c.Sim.Core.Width++ }},
		{"queue-cap", func(c *Config) { c.Sim.QueueCap = 64 }},
		{"shared-l2", func(c *Config) { c.Sim.SharedL2 = true }},
		{"way-quota", func(c *Config) { c.Sim.L2WayQuota = []int{2, 2, 2, 2} }},
		{"prefetch", func(c *Config) { c.Sim.L2PrefetchDepth = 2 }},
		{"warmup", func(c *Config) { c.Sim.WarmupInstructions++ }},
		{"power", func(c *Config) { c.Sim.Power = &dram.PowerConfig{ReadBurstNJ: 1} }},
	}
	seen := map[string]string{base: "base"}
	for _, m := range mutations {
		cfg := Quick()
		m.mut(&cfg)
		fp := configFingerprint(cfg)
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutation %q fingerprint collides with %q", m.name, prev)
		}
		seen[fp] = m.name
	}
}

// TestFingerprintKernelInvariant documents the deliberate exclusion: the
// simulation kernels are bit-identical by contract (the differential suites
// enforce it), so cells recorded under one are served under the other.
func TestFingerprintKernelInvariant(t *testing.T) {
	base := Quick()
	naive := Quick()
	naive.Sim.Kernel = sim.KernelNaive
	if configFingerprint(base) != configFingerprint(naive) {
		t.Error("kernel choice changed the fingerprint; kernels are bit-identical and must share cells")
	}
}

// TestCellKeySeparation checks the in-memory cache key separates benchmark
// lists, schemes, and configurations — and, being content-addressed,
// collides exactly when two mixes name the same applications (the
// motivation mix aliases hetero-5).
func TestCellKeySeparation(t *testing.T) {
	mixA, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	mixB, err := workload.MixByName("hetero-2")
	if err != nil {
		t.Fatal(err)
	}
	fp := configFingerprint(Quick())
	keys := map[string]bool{
		cellKey(fp, mixA, "equal"):        true,
		cellKey(fp, mixA, "square-root"):  true,
		cellKey(fp, mixB, "equal"):        true,
		cellKey("otherfp", mixA, "equal"): true,
	}
	if len(keys) != 4 {
		t.Errorf("cell keys collide: %v", keys)
	}
	hetero5, err := workload.MixByName("hetero-5")
	if err != nil {
		t.Fatal(err)
	}
	motivation := workload.MotivationMix()
	if cellKey(fp, motivation, "equal") != cellKey(fp, hetero5, "equal") {
		t.Error("motivation mix and hetero-5 run the same applications but key separately")
	}
	if mixKey(motivation) != mixKey(hetero5) {
		t.Error("motivation mix and hetero-5 should share one prepared base")
	}
}

// TestCheckpointPathVersioned pins the cell file naming: the name leads with
// an explicit version tag and the canonical fingerprint prefix, and is derived
// from the memory tier's cellKey — so an encoding bump (or any config change)
// misses instead of serving stale cells, and the display name plays no part.
func TestCheckpointPathVersioned(t *testing.T) {
	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Quick())
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	path := store.cellPath(r, mix, "equal")
	if want := fmt.Sprintf("v%d-%s-", FingerprintVersion, r.fp[:16]); !strings.HasPrefix(filepath.Base(path), want) {
		t.Errorf("cell path %q lacks the version tag and fingerprint prefix %q", path, want)
	}
	renamed := mix
	renamed.Name = "some-other-label"
	if store.cellPath(r, renamed, "equal") != path {
		t.Error("cell path depends on the mix's display name")
	}
	if store.cellPath(r, mix, "square-root") == path {
		t.Error("two schemes share one cell path")
	}
}
