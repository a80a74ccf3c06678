package exper

import (
	"encoding/json"
	"fmt"
	"strings"

	"bwpart/internal/dram"
)

// System is the simulated system a cell runs on, as edits of its runner's
// configuration (the zero value edits nothing). A runner resolves each
// distinct System once and keys its cells, checkpoint files, warm bases and
// alone profiles by the edited configuration's fingerprint, as a runner built
// over that configuration would.
type System struct {
	Scale    float64 // multiplies the DRAM bus clock (Figure 4); 0 and 1 leave it
	OpenPage bool    // runs the DRAM open-page
	// L2Quota, when set, is one 512 KB shared L2 split by way as fmt prints
	// the ways per app ("[1 1 1 5]"): one way (64 KB) cannot hold an app's
	// L2-resident working set, so the share visibly moves API (footnote 1).
	L2Quota string
	Seed    int64 // replaces the runner's seed when non-zero
}

// system is a System resolved on a runner: its configuration, the fingerprint
// keying its cells and warm bases, and aloneFP, that of the configuration
// without its way quota (which sim.ProfileAlone drops) keying alone profiles.
type system struct {
	cfg         Config
	fp, aloneFP string
}

// newSystem resolves a validated cfg whose simulator runs under its seed.
func newSystem(cfg Config) *system {
	on := &system{cfg: cfg, fp: configFingerprint(cfg)}
	cfg.Sim.L2WayQuota = nil
	on.aloneFP = configFingerprint(cfg)
	return on
}

// systemsCap bounds a runner's table of resolved systems: the figure suite
// names a fixed few, while a long-lived service may be sent a new scale with
// every request. A full table is cleared, and a System resolved again gets
// the same configuration and fingerprint as before.
const systemsCap = 64

// system resolves s once per distinct value while the table holds it; the zero
// value is the runner's own system, with no table lookup.
func (r *Runner) system(s System) (*system, error) {
	if s.Scale == 1 { // ScaleBandwidth(1) edits nothing
		s.Scale = 0
	}
	if s == (System{}) {
		return r.own, nil
	}
	r.systemsMu.Lock()
	defer r.systemsMu.Unlock()
	if on := r.systems[s]; on != nil {
		return on, nil
	}
	cfg := r.cfg
	if s.Scale != 0 {
		cfg.Sim.DRAM = cfg.Sim.DRAM.ScaleBandwidth(s.Scale)
	}
	if s.OpenPage {
		cfg.Sim.DRAM.Policy = dram.OpenPage
	}
	if s.L2Quota != "" { // fmt's "[1 1 1 5]" is JSON once its spaces are commas
		cfg.Sim.SharedL2, cfg.Sim.L2WayQuota, cfg.Sim.L2.SizeBytes = true, nil, 512<<10
		if err := json.Unmarshal([]byte(strings.Join(strings.Fields(s.L2Quota), ",")), &cfg.Sim.L2WayQuota); err != nil {
			return nil, fmt.Errorf("exper: L2 quota %q: %w", s.L2Quota, err)
		}
	}
	if s.Seed != 0 {
		cfg.Seed, cfg.Sim.Seed = s.Seed, s.Seed
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("exper: system %+v: %w", s, err)
	}
	if len(r.systems) >= systemsCap {
		clear(r.systems)
	}
	r.systems[s] = newSystem(cfg)
	return r.systems[s], nil
}

// SystemConfig returns the configuration the runner's cells on s run under,
// or why s names no valid system.
func (r *Runner) SystemConfig(s System) (Config, error) {
	on, err := r.system(s)
	if err != nil {
		return Config{}, err
	}
	return on.cfg, nil
}
