package sim

import (
	"errors"
	"fmt"

	"bwpart/internal/cache"
	"bwpart/internal/cpu"
	"bwpart/internal/mem"
)

// snapCache is the checkpoint surface shared by Cache and SharedCache.
type snapCache interface {
	Idle() bool
	Snapshot() *cache.State
}

// checkpointStream is the contract a workload stream must implement to be
// checkpointable (workload.Generator and workload.Phased both do): export
// resumable state, resume from it, and fork an independent continuation.
type checkpointStream interface {
	cpu.Stream
	StreamState() any
	RestoreStreamState(st any) error
	ForkStream() cpu.Stream
}

// Checkpoint is the warmed state of a system that has not run. Warmup changes
// only the cache lines, the cache counters and the workload streams, so that
// is what it holds (with the caches' way quotas); every other component of a
// system built from it (FromCheckpoint, ForkAt) is new. It is plain data that
// shares no memory with its system but the immutable window mark, and holds
// no request: none is ever in flight at the warm point.
type Checkpoint struct {
	mark    *Counters
	caches  []*cache.State // in System.caches order
	streams []any
}

// Snapshot captures the warmed state of a system that has not run. It fails
// on any other system — one that has simulated a cycle, whose controller has
// taken an access or a new scheduler, or whose cache holds a request (the
// DRAM device is driven only by the controller, so it is as built too) — and
// when a workload stream does not implement the checkpoint contract.
func (s *System) Snapshot() (*Checkpoint, error) {
	if s.now != 0 {
		return nil, fmt.Errorf("sim: the system has run %d cycles; a checkpoint is the warmed state of a system that has not run", s.now)
	}
	if !s.ctrl.Pristine() {
		return nil, errors.New("sim: the memory controller has taken an access or a new scheduler since it was built")
	}
	cp := &Checkpoint{mark: s.mark}
	for _, c := range s.caches {
		if !c.Idle() {
			return nil, errors.New("sim: a cache holds a request")
		}
		cp.caches = append(cp.caches, c.Snapshot())
	}
	for i := range s.cores {
		cs, ok := s.specs[i].Stream.(checkpointStream)
		if !ok {
			return nil, fmt.Errorf("sim: app %d stream %T does not support checkpointing", i, s.specs[i].Stream)
		}
		cp.streams = append(cp.streams, cs.StreamState())
	}
	return cp, nil
}

// ForkAt builds a new system with this system's Config and specs from cp,
// which must have been taken on this system (or one with identical
// construction), as FromCheckpoint does. The fork owns independent stream
// objects and shares no mutable state with the parent.
func (s *System) ForkAt(cp *Checkpoint) (*System, error) {
	if cp == nil {
		return nil, errors.New("sim: nil checkpoint")
	}
	specs := make([]AppSpec, len(s.specs))
	for i, sp := range s.specs {
		cs, ok := sp.Stream.(checkpointStream)
		if !ok {
			return nil, fmt.Errorf("sim: app %d stream %T does not support forking", i, sp.Stream)
		}
		sp.Stream = cs.ForkStream()
		specs[i] = sp
	}
	return build(s.cfg, specs, cp)
}

// Fork snapshots a warmed system that has not run and returns an
// independent copy of it (see ForkAt).
func (s *System) Fork() (*System, error) {
	cp, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	return s.ForkAt(cp)
}

// seed checks the whole of cp against the system cfg and specs describe —
// app count, L2 topology, and each cache state's geometry, associativity,
// stat rows and quotas — then sets each spec's stream to its saved state and
// drops its warmup. It returns the window mark; a nil cp seeds nothing.
func (cp *Checkpoint) seed(cfg Config, specs []AppSpec) (*Counters, error) {
	if cp == nil {
		return &zeroMark, nil
	}
	n, caches := len(specs), 2*len(specs)
	if cfg.SharedL2 {
		caches = n + 1 // one shared L2 replaces the private ones
	}
	if len(cp.streams) != n || len(cp.caches) != caches {
		return nil, fmt.Errorf("sim: checkpoint has %d apps and %d caches, system has %d and %d",
			len(cp.streams), len(cp.caches), n, caches)
	}
	for i, st := range cp.caches {
		c, apps := cfg.L1, 0
		if cfg.SharedL2 && i == 0 {
			c, apps = cfg.L2, n
		} else if !cfg.SharedL2 && i%2 == 0 {
			c = cfg.L2
		}
		if err := st.Fits(c, apps); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	for i := range specs {
		cs, ok := specs[i].Stream.(checkpointStream)
		if !ok {
			return nil, fmt.Errorf("sim: app %d stream %T does not support checkpointing", i, specs[i].Stream)
		}
		if err := cs.RestoreStreamState(cp.streams[i]); err != nil {
			return nil, fmt.Errorf("sim: app %d stream: %w", i, err)
		}
		specs[i].Warm = nil
	}
	return cp.mark, nil
}

// private builds the i-th cache, a private one, empty or from its state.
func (cp *Checkpoint) private(i int, cfg cache.Config, lower mem.Port) (*cache.Cache, error) {
	if cp == nil {
		return cache.New(cfg, lower)
	}
	return cache.FromState(cp.caches[i], cfg, lower)
}

// shared builds the shared L2, empty with quota or from its state.
func (cp *Checkpoint) shared(cfg cache.Config, apps int, quota []int, lower mem.Port) (*cache.SharedCache, error) {
	if cp == nil {
		return cache.NewShared(cfg, apps, quota, lower)
	}
	return cache.SharedFromState(cp.caches[0], cfg, apps, lower)
}
