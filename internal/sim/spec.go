package sim

import (
	"errors"
	"fmt"

	"bwpart/internal/cache"
	"bwpart/internal/cpu"
	"bwpart/internal/dram"
	"bwpart/internal/mem"
	"bwpart/internal/memctrl"
	"bwpart/internal/workload"
)

// AppSpec describes one application for NewFromSpecs: a display name, full
// core parameters, the instruction stream, and an optional functional
// warmup routine. It generalizes the profile-based constructor to phased
// or custom workloads.
type AppSpec struct {
	Name string
	Core cpu.Config
	// Stream feeds the core; if it implements cpu.DynamicStream the core
	// follows its phase-dependent parameters.
	Stream cpu.Stream
	// Warm, if non-nil, performs functional cache warmup for this app
	// (receives the L1 and the instruction budget).
	Warm func(t workload.Toucher, n int64)
}

// NewFromSpecs assembles a system from explicit application specs. It is
// the generalized constructor behind New; use it for phased workloads or
// hand-built streams.
func NewFromSpecs(cfg Config, specs []AppSpec) (*System, error) { return build(cfg, specs, nil) }

// build assembles a system from specs: a new one, or with cp non-nil the
// warmed system cp was taken of, whose caches and streams are built from
// cp's states once the whole of cp has been checked (Checkpoint.seed).
func build(cfg Config, specs []AppSpec, cp *Checkpoint) (*System, error) {
	if len(specs) == 0 {
		return nil, errors.New("sim: no applications")
	}
	mark, err := cp.seed(cfg, specs)
	if err != nil {
		return nil, err
	}
	dev, err := dram.NewDevice(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	ctrl, err := memctrl.New(dev, len(specs), cfg.QueueCap, memctrl.NewFCFS())
	if err != nil {
		return nil, err
	}
	// At most the controller plus an L2, an L1 and a core per application
	// (one shared L2 replaces the private ones).
	n := 1 + 3*len(specs)
	s := &System{cfg: cfg, dev: dev, ctrl: ctrl, minLat: dev.MinLatency(),
		slots: make([]slot, 0, n), wakes: make([]int64, 0, n), mark: mark}
	ctrlW := s.addComponent("ctrl", ctrl, nil)
	var sharedW *mem.Waker
	var sharedSlot int
	if cfg.SharedL2 {
		quota := cfg.L2WayQuota
		if quota == nil {
			quota = make([]int, len(specs))
			per := cfg.L2.Ways / len(specs)
			if per < 1 {
				per = 1
			}
			for i := range quota {
				quota[i] = per
			}
		}
		// A shared L2 serves all cores: scale the miss registers so each
		// application keeps the per-core MSHR budget of the private design
		// (per-app caps inside SharedCache enforce the fair split).
		l2cfg := cfg.L2
		l2cfg.MSHRs *= len(specs)
		shared, err := cp.shared(l2cfg, len(specs), quota, ctrl)
		if err != nil {
			return nil, fmt.Errorf("sim: shared L2: %w", err)
		}
		s.sharedL2 = shared
		s.caches = append(s.caches, shared)
		sharedSlot = len(s.slots)
		sharedW = s.addComponent("l2", shared, ctrlW)
	}
	for i, spec := range specs {
		if spec.Stream == nil {
			return nil, fmt.Errorf("sim: app %d (%s) has no stream", i, spec.Name)
		}
		var l2 *cache.Cache
		var l1Lower mem.Port
		if cfg.SharedL2 {
			l1Lower = s.sharedL2.PortFor(i)
		} else {
			l2cfg := cfg.L2
			l2cfg.PrefetchDepth = cfg.L2PrefetchDepth
			var err error
			l2, err = cp.private(len(s.caches), l2cfg, ctrl)
			if err != nil {
				return nil, fmt.Errorf("sim: app %d L2: %w", i, err)
			}
			s.caches = append(s.caches, l2)
			l1Lower = l2
		}
		l1, err := cp.private(len(s.caches), cfg.L1, l1Lower)
		if err != nil {
			return nil, fmt.Errorf("sim: app %d L1: %w", i, err)
		}
		s.caches = append(s.caches, l1)
		core, err := cpu.New(spec.Core, i, l1, spec.Stream)
		if err != nil {
			return nil, fmt.Errorf("sim: app %d core: %w", i, err)
		}
		s.l2s = append(s.l2s, l2)
		s.l1s = append(s.l1s, l1)
		s.cores = append(s.cores, core)
		s.specs = append(s.specs, spec)
		// Tick order within an application: lower levels first so fills
		// land before the core's same-cycle retire/dispatch sees them.
		lowerW, l2Slot := sharedW, sharedSlot
		if l2 != nil {
			l2Slot = len(s.slots)
			lowerW = s.addComponent(fmt.Sprintf("l2.%d", i), l2, ctrlW)
		}
		l1Slot := len(s.slots)
		l1W := s.addComponent(fmt.Sprintf("l1.%d", i), l1, lowerW)
		s.addComponent(fmt.Sprintf("core.%d", i), core, l1W)
		cs := &s.slots[len(s.slots)-1]
		cs.core, cs.l1, cs.l2 = core, l1Slot, l2Slot
		if l2 != nil {
			cs.fill = l1
		}
	}
	return s, nil
}

// addComponent appends c to the tick order, attaches c's wake handle,
// registers it as upstream of the component it sends accesses to (lower),
// and returns it.
func (s *System) addComponent(name string, c component, lower *mem.Waker) *mem.Waker {
	i := len(s.slots)
	s.slots = append(s.slots, slot{c: c, lower: -1, ComponentKernelStats: ComponentKernelStats{Name: name}})
	for j := range i {
		if lower != nil && s.slots[j].w == lower {
			s.slots[i].lower = j
		}
	}
	s.wakes = append(s.wakes, 0)
	w := mem.NewWaker(func() { s.rouse(i) })
	c.SetWaker(w)
	lower.AddUpstream(w)
	s.slots[i].w = w
	return w
}
