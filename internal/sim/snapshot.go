package sim

import (
	"fmt"

	"bwpart/internal/cache"
	"bwpart/internal/cpu"
	"bwpart/internal/dram"
	"bwpart/internal/mem"
	"bwpart/internal/memctrl"
)

// This file implements system-level checkpointing: Snapshot captures every
// stateful component (cores, caches, controller, DRAM device, workload
// streams, scheduler state) as plain data, Restore installs a checkpoint
// into a compatible system, and Fork builds a new system continuing
// bit-identically from the current state. The experiment runner uses forks
// to pay a mix's warmup once and branch into every (scheme, scale) point.
//
// Requests in flight cross component boundaries (a core's load waits in an
// L2 MSHR; an L2 fill sits in the controller queue), so each retained
// request is captured as a mem.RequestState naming its owner (mem.Origin)
// and re-linked on restore through a resolver that asks the owner for the
// rebuilt request object.

// snapCache is the checkpoint surface shared by Cache and SharedCache: the
// two-phase capture / restore, and the resolver's dispatch of fill and
// writeback origins to the owning cache by snap id.
type snapCache interface {
	FillRequest(la uint64) (*mem.Request, error)
	WBRequest(app int, addr uint64) *mem.Request
	Snapshot() *cache.State
	Restore(st *cache.State) error
	Relink(st *cache.State, resolve mem.Resolver) error
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

// Checkpoint is a complete snapshot of a System mid-run. It is plain data
// that shares no memory with its system but the immutable window mark, stays
// valid however that system advances, and may be restored into any number of
// systems built from the same Config and specs (Fork does exactly that).
type Checkpoint struct {
	now  int64
	mark *Counters

	dev     *dram.DeviceState
	ctrl    *memctrl.ControllerState
	cores   []*cpu.CoreState
	caches  []*cache.State // in snap-id order (System.snapCaches)
	streams []any
}

// Cycle returns the simulated cycle at which the checkpoint was taken.
func (cp *Checkpoint) Cycle() int64 { return cp.now }

// Snapshot captures the system's complete simulation state. It fails when a
// workload stream does not implement the checkpoint contract.
func (s *System) Snapshot() (*Checkpoint, error) {
	cp := &Checkpoint{
		now:  s.now,
		mark: s.mark,
		dev:  s.dev.Snapshot(),
		ctrl: s.ctrl.Snapshot(),
	}
	for i := range s.cores {
		cs, ok := s.specs[i].Stream.(checkpointStream)
		if !ok {
			return nil, fmt.Errorf("sim: app %d stream %T does not support checkpointing", i, s.specs[i].Stream)
		}
		cp.streams = append(cp.streams, cs.StreamState())
		cp.cores = append(cp.cores, s.cores[i].Snapshot(s.now))
	}
	for _, c := range s.snapCaches {
		cp.caches = append(cp.caches, c.Snapshot())
	}
	return cp, nil
}

// resolver returns the mem.Resolver that re-links captured requests to
// their rebuilt owners in this system.
func (s *System) resolver() mem.Resolver {
	return func(rs mem.RequestState) (*mem.Request, error) {
		switch rs.Origin.Kind {
		case mem.OriginCoreLoad:
			app := int(rs.Origin.Comp)
			if app < 0 || app >= len(s.cores) {
				return nil, fmt.Errorf("sim: load origin names unknown app %d", app)
			}
			return s.cores[app].LoadRequest(rs.Origin.Key)
		case mem.OriginCacheFill:
			comp := int(rs.Origin.Comp)
			if comp < 0 || comp >= len(s.snapCaches) {
				return nil, fmt.Errorf("sim: fill origin names unknown cache %d", comp)
			}
			return s.snapCaches[comp].FillRequest(rs.Origin.Key)
		case mem.OriginCacheWB:
			comp := int(rs.Origin.Comp)
			if comp < 0 || comp >= len(s.snapCaches) {
				return nil, fmt.Errorf("sim: writeback origin names unknown cache %d", comp)
			}
			// Writebacks carry no state beyond (app, addr): recreate one.
			return s.snapCaches[comp].WBRequest(rs.App, rs.Addr), nil
		default:
			return nil, fmt.Errorf("sim: request app %d addr %#x has no checkpointable origin", rs.App, rs.Addr)
		}
	}
}

// Restore overwrites the system's simulation state from a checkpoint taken
// on a system with the same Config and application specs. The checkpoint is
// not consumed or mutated — the same checkpoint can restore any number of
// systems. Harness configuration (the tracers) is left untouched.
func (s *System) Restore(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("sim: nil checkpoint")
	}
	if len(cp.cores) != len(s.cores) {
		return fmt.Errorf("sim: checkpoint has %d apps, system has %d", len(cp.cores), len(s.cores))
	}
	// At equal app counts the two topologies differ in their cache count
	// (a shared L2 replaces one private L2 per app).
	if len(cp.caches) != len(s.snapCaches) {
		return fmt.Errorf("sim: checkpoint has %d caches, system has %d: the L2 topologies differ",
			len(cp.caches), len(s.snapCaches))
	}
	// Streams and cores rebuild their own request objects first; caches then
	// restore shells (phase 1) so fill requests exist, and re-link retained
	// foreign requests (phase 2), both in snap-id order — the shared L2, then
	// per app L2 before L1 — which fixes the order writeback requests leave
	// each pool; the controller restores last, resolving queued requests
	// against the fully rebuilt caches and cores.
	for i := range s.cores {
		cs, ok := s.specs[i].Stream.(checkpointStream)
		if !ok {
			return fmt.Errorf("sim: app %d stream %T does not support checkpointing", i, s.specs[i].Stream)
		}
		if err := cs.RestoreStreamState(cp.streams[i]); err != nil {
			return fmt.Errorf("sim: app %d stream: %w", i, err)
		}
		if err := s.cores[i].Restore(cp.cores[i]); err != nil {
			return fmt.Errorf("sim: app %d core: %w", i, err)
		}
	}
	if err := s.dev.Restore(cp.dev); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for i, c := range s.snapCaches {
		if err := c.Restore(cp.caches[i]); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	resolve := s.resolver()
	for i, c := range s.snapCaches {
		if err := c.Relink(cp.caches[i], resolve); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if err := s.ctrl.Restore(cp.ctrl, resolve); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	s.now = cp.now
	s.mark = cp.mark
	s.ticked, s.leapt = 0, 0
	for i := range s.slots {
		s.slots[i].ComponentKernelStats = ComponentKernelStats{Name: s.slots[i].Name}
	}
	return nil
}

// ForkAt builds a new system with this system's Config and specs and
// restores it from cp, which must have been taken on this system (or one
// with identical construction). The fork owns independent stream objects
// and shares no mutable state with the parent: both continue bit-identically
// to a single system that ran on from the checkpoint. Functional warmup is
// not re-run — the checkpoint already contains the warmed state.
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

// Fork snapshots the system and returns an independent copy continuing from
// the current state (see ForkAt).
func (s *System) Fork() (*System, error) {
	cp, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	return s.ForkAt(cp)
}
