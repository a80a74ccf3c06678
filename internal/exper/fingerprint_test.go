package exper

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bwpart/internal/dram"
	"bwpart/internal/workload"
)

// TestFingerprintCanonical pins the fingerprint's two contracts: identical
// configurations collide (stably, across Runner instances) and every
// result-affecting knob separates. The knobs are the hand-listed mutations
// below plus every field of sim.Config, found by reflection down to the
// leaves of its DRAM, cache, core and power configurations, so a field added
// later cannot be left out of the cell key unnoticed.
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

	// perturb changes every leaf under v in turn, and requires each change
	// to move the fingerprint of cfg, of which v is a part. A nil pointer
	// is first set to its zero value, which must move it too, and then
	// walked.
	cfg := Quick()
	var perturb func(path string, v reflect.Value)
	perturb = func(path string, v reflect.Value) {
		before := configFingerprint(cfg)
		moved := func() {
			if configFingerprint(cfg) == before {
				t.Errorf("changing %s leaves the fingerprint as it was", path)
			}
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		defer v.Set(old)
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				perturb(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		case reflect.Pointer:
			if !v.IsNil() {
				t.Fatalf("%s: Quick sets it; the walk expects nil", path)
			}
			v.Set(reflect.New(v.Type().Elem()))
			moved()
			perturb(path, v.Elem())
			return
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 1)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		default:
			t.Fatalf("%s: no perturbation for a %s field", path, v.Kind())
		}
		moved()
	}
	perturb("Sim", reflect.ValueOf(&cfg.Sim).Elem())
}

// TestCellKeySeparation checks the in-memory cache key separates benchmark
// lists, schemes, share vectors, epochs and configurations — and, being content-addressed,
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
		cellKey(fp, GridCell{Mix: mixA, Scheme: "equal"}):        true,
		cellKey(fp, GridCell{Mix: mixA, Scheme: "square-root"}):  true,
		cellKey(fp, GridCell{Mix: mixB, Scheme: "equal"}):        true,
		cellKey("otherfp", GridCell{Mix: mixA, Scheme: "equal"}): true,
	}
	// A share vector is keyed by its exact bits: two vectors one ulp apart
	// in one share are two cells.
	shares := []float64{0.1, 0.2, 0.3, 0.4}
	nudged := append([]float64(nil), shares...)
	nudged[2] = math.Nextafter(nudged[2], 1)
	keys[cellKey(fp, GridCell{Mix: mixA, Scheme: "start-time-fair", Shares: shares})] = true
	keys[cellKey(fp, GridCell{Mix: mixA, Scheme: "start-time-fair", Shares: nudged})] = true
	// An online cell is keyed by its epoch length and count.
	for _, c := range []GridCell{{Epoch: 20_000, Epochs: 3}, {Epoch: 30_000, Epochs: 2}, {Epoch: 20_000, Epochs: 30}} {
		c.Mix, c.Scheme = mixA, "online:equal"
		keys[cellKey(fp, c)] = true
	}
	if len(keys) != 9 {
		t.Errorf("cell keys collide: %v", keys)
	}
	hetero5, err := workload.MixByName("hetero-5")
	if err != nil {
		t.Fatal(err)
	}
	motivation := workload.MotivationMix()
	if cellKey(fp, GridCell{Mix: motivation, Scheme: "equal"}) != cellKey(fp, GridCell{Mix: hetero5, Scheme: "equal"}) {
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
	path := store.cellPath(r, GridCell{Mix: mix, Scheme: "equal"})
	if want := fmt.Sprintf("v%d-%s-", FingerprintVersion, r.fp[:16]); !strings.HasPrefix(filepath.Base(path), want) {
		t.Errorf("cell path %q lacks the version tag and fingerprint prefix %q", path, want)
	}
	renamed := mix
	renamed.Name = "some-other-label"
	if store.cellPath(r, GridCell{Mix: renamed, Scheme: "equal"}) != path {
		t.Error("cell path depends on the mix's display name")
	}
	if store.cellPath(r, GridCell{Mix: mix, Scheme: "square-root"}) == path {
		t.Error("two schemes share one cell path")
	}
}
