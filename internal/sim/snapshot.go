package sim

import (
	"errors"
	"fmt"

	"bwpart/internal/cache"
	"bwpart/internal/cpu"
)

// This file implements system-level checkpointing at the warm point: the
// state of a system that has been functionally warmed (Warmup) but has not
// simulated a cycle. Warmup changes only the cache lines, the cache counters
// and the workload streams; every other component — cores, controller,
// scheduler, DRAM device — is still as NewFromSpecs built it. So a
// Checkpoint holds each cache's lines, counters and way quotas and each
// stream's state, Snapshot refuses any system whose other state might
// differ from a fresh build, and Restore copies that state into a system
// just built from the same Config and specs. The experiment runner pays a
// mix's warmup once this way and forks every (scheme, scale) cell from it.
// No request is ever in flight at a checkpoint, so none is captured.

// snapCache is the checkpoint surface shared by Cache and SharedCache.
type snapCache interface {
	Idle() bool
	Snapshot() *cache.State
	Restore(st *cache.State) error
}

// checkpointStream is the contract a workload stream must implement to be
// checkpointable (workload.Generator and workload.Phased both do): export
// resumable state, restore it, and fork an independent continuation.
type checkpointStream interface {
	cpu.Stream
	StreamState() any
	RestoreStreamState(st any) error
	ForkStream() cpu.Stream
}

// Checkpoint is the warmed state of a system that has not run. It is plain
// data that shares no memory with its system but the immutable window mark,
// stays valid however that system advances, and may be restored into any
// number of systems built from the same Config and specs (Fork does exactly
// that).
type Checkpoint struct {
	mark    *Counters
	caches  []*cache.State // in System.caches order
	streams []any
}

// unrun returns an error unless the system is at its warm point: no cycle
// simulated, no access taken and no scheduler installed by the controller,
// and no request held by any cache. The DRAM device is driven only by the
// controller, so it is as built too.
func (s *System) unrun() error {
	if s.now != 0 {
		return fmt.Errorf("sim: the system has run %d cycles; a checkpoint is the warmed state of a system that has not run", s.now)
	}
	if !s.ctrl.Pristine() {
		return errors.New("sim: the memory controller has taken an access or a new scheduler since it was built")
	}
	for _, c := range s.caches {
		if !c.Idle() {
			return errors.New("sim: a cache holds a request")
		}
	}
	return nil
}

// Snapshot captures the warmed state of a system that has not run. It fails
// on any other system, and when a workload stream does not implement the
// checkpoint contract.
func (s *System) Snapshot() (*Checkpoint, error) {
	if err := s.unrun(); err != nil {
		return nil, err
	}
	cp := &Checkpoint{mark: s.mark}
	for i := range s.cores {
		cs, ok := s.specs[i].Stream.(checkpointStream)
		if !ok {
			return nil, fmt.Errorf("sim: app %d stream %T does not support checkpointing", i, s.specs[i].Stream)
		}
		cp.streams = append(cp.streams, cs.StreamState())
	}
	for _, c := range s.caches {
		cp.caches = append(cp.caches, c.Snapshot())
	}
	return cp, nil
}

// Restore installs a checkpoint into a system that has not run, built with
// the same Config and application specs as the checkpointed one. The
// checkpoint is not consumed or mutated — the same checkpoint can restore
// any number of systems. Harness configuration (the tracers) is left
// untouched.
func (s *System) Restore(cp *Checkpoint) error {
	if cp == nil {
		return errors.New("sim: nil checkpoint")
	}
	if len(cp.streams) != len(s.cores) {
		return fmt.Errorf("sim: checkpoint has %d apps, system has %d", len(cp.streams), len(s.cores))
	}
	// At equal app counts the two topologies differ in their cache count
	// (a shared L2 replaces one private L2 per app).
	if len(cp.caches) != len(s.caches) {
		return fmt.Errorf("sim: checkpoint has %d caches, system has %d: the L2 topologies differ",
			len(cp.caches), len(s.caches))
	}
	if err := s.unrun(); err != nil {
		return err
	}
	for i, c := range s.caches {
		if err := c.Restore(cp.caches[i]); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	for i := range s.cores {
		cs, ok := s.specs[i].Stream.(checkpointStream)
		if !ok {
			return fmt.Errorf("sim: app %d stream %T does not support checkpointing", i, s.specs[i].Stream)
		}
		if err := cs.RestoreStreamState(cp.streams[i]); err != nil {
			return fmt.Errorf("sim: app %d stream: %w", i, err)
		}
	}
	s.mark = cp.mark
	return nil
}

// ForkAt builds a new system with this system's Config and specs and
// restores it from cp, which must have been taken on this system (or one
// with identical construction). The fork owns independent stream objects
// and shares no mutable state with the parent. Functional warmup is not
// re-run — the checkpoint already contains the warmed state.
func (s *System) ForkAt(cp *Checkpoint) (*System, error) {
	specs := make([]AppSpec, len(s.specs))
	for i, sp := range s.specs {
		cs, ok := sp.Stream.(checkpointStream)
		if !ok {
			return nil, fmt.Errorf("sim: app %d stream %T does not support forking", i, sp.Stream)
		}
		sp.Stream = cs.ForkStream()
		sp.Warm = nil
		specs[i] = sp
	}
	fork, err := NewFromSpecs(s.cfg, specs)
	if err != nil {
		return nil, err
	}
	if err := fork.Restore(cp); err != nil {
		return nil, err
	}
	return fork, nil
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
