package memctrl

import (
	"fmt"
	"slices"

	"bwpart/internal/mem"
)

// This file implements the controller side of the system checkpoint
// contract (sim.System.Snapshot/Restore/Fork): a snapshot of every queued
// entry, every pending completion, the arrival/completion sequence
// counters, and a deep copy of the scheduling policy — captured without
// aliasing any live object, so a checkpoint stays valid while the
// controller (or a fork restored from it) keeps running.

// ---------------------------------------------------------------------------
// Controller state.

// entryState is one queued request in serialized form.
type entryState struct {
	req    mem.RequestState
	arrive int64
	seq    int64
}

// compState is one pending completion in serialized form.
type compState struct {
	cycle int64
	seq   uint64
	wait  int64
	req   mem.RequestState
}

// ControllerState is a deep snapshot of a Controller. It holds no pointers
// into the live controller; requests are captured as mem.RequestState and
// re-resolved on restore.
type ControllerState struct {
	queues      [][]entryState // per app, oldest first
	completions []compState    // in heap-array order
	seq         int64
	compSeq     uint64
	inFlight    int
	nextTry     int64
	maxInFlight int
	stats       []AppStats
	// sched is a private copy of the policy. Each Restore installs a clone
	// of it, never sched itself, so one checkpoint can seed many forks.
	sched Scheduler
}

// Snapshot captures the controller's complete scheduling state. The
// returned state shares no memory with the controller.
func (c *Controller) Snapshot() *ControllerState {
	st := &ControllerState{
		queues:      make([][]entryState, c.numApps),
		completions: make([]compState, len(c.completions)),
		seq:         c.seq,
		compSeq:     c.compSeq,
		inFlight:    c.inFlight,
		nextTry:     c.nextTry,
		maxInFlight: c.maxInFlight,
		stats:       append([]AppStats(nil), c.stats...),
		sched:       c.sched.clone(),
	}
	for a := range c.queues {
		q := &c.queues[a]
		row := make([]entryState, q.len())
		for i := range row {
			e := q.at(i)
			row[i] = entryState{req: mem.CaptureRequest(e.Req), arrive: e.Arrive, seq: e.seq}
		}
		st.queues[a] = row
	}
	for i, ev := range c.completions {
		st.completions[i] = compState{cycle: ev.cycle, seq: ev.seq, wait: ev.wait, req: mem.CaptureRequest(ev.req)}
	}
	return st
}

// Restore installs st into the controller, resolving captured requests via
// resolve. The tracers are left untouched: they are harness configuration,
// not simulation state. st is not mutated and no memory is shared with it
// afterwards, so the same checkpoint can restore any number of controllers.
func (c *Controller) Restore(st *ControllerState, resolve mem.Resolver) error {
	if st == nil {
		return fmt.Errorf("memctrl: nil controller state")
	}
	if len(st.queues) != c.numApps {
		return fmt.Errorf("memctrl: state has %d app queues, controller has %d", len(st.queues), c.numApps)
	}
	if len(st.stats) != len(c.stats) {
		return fmt.Errorf("memctrl: state has %d stat rows, controller has %d", len(st.stats), len(c.stats))
	}

	// Drop current queue contents (entries go back to the pool) and rebuild
	// from the snapshot. Coord, bank and the queued/queuedWrites counters
	// are re-derived exactly as Access does.
	for a := range c.queues {
		q := &c.queues[a]
		n := q.len()
		for i := 0; i < n; i++ {
			c.freeEntry(q.at(i))
		}
		c.queues[a] = fifo{}
	}
	c.queued = 0
	c.queuedWrites = 0
	for a, row := range st.queues {
		q := &c.queues[a]
		for i := range row {
			es := &row[i]
			req, err := resolve(es.req)
			if err != nil {
				return fmt.Errorf("memctrl: resolve queued request: %w", err)
			}
			e := c.newEntry()
			e.Req = req
			e.Coord = c.cfg.Decode(req.Addr)
			e.Arrive = es.arrive
			e.seq = es.seq
			e.bank = int32(c.cfg.GlobalBank(e.Coord))
			q.push(e)
			c.queued++
			if req.Write {
				c.queuedWrites++
			}
		}
	}

	// Pending completions, in captured heap-array order: copying the array
	// verbatim reproduces the exact heap layout without re-heapifying.
	c.completions = c.completions[:0]
	for i := range st.completions {
		cs := &st.completions[i]
		req, err := resolve(cs.req)
		if err != nil {
			return fmt.Errorf("memctrl: resolve in-flight request: %w", err)
		}
		c.completions = append(c.completions, completion{cycle: cs.cycle, seq: cs.seq, wait: cs.wait, req: req})
	}

	c.seq = st.seq
	c.compSeq = st.compSeq
	c.inFlight = st.inFlight
	c.nextTry = st.nextTry
	c.maxInFlight = st.maxInFlight
	copy(c.stats, st.stats)

	c.applyScheduler(st.sched.clone())
	return nil
}

// ---------------------------------------------------------------------------
// Scheduler clones. clone is Scheduler's unexported method: it returns a
// copy of the policy's configuration and state that shares no memory with
// the receiver. Scalars are copied by value, and every slice (and
// WriteDrain's inner policy) gets its own copy. Share vectors and cached
// reciprocals are copied verbatim, never re-derived: re-normalizing would
// drift floats and break bit-identity.

func (*FCFS) clone() Scheduler { return &FCFS{} }

func (s *FRFCFS) clone() Scheduler {
	c := *s
	return &c
}

func (p *Priority) clone() Scheduler { return &Priority{rank: slices.Clone(p.rank)} }

func (s *StartTimeFair) clone() Scheduler {
	return &StartTimeFair{
		shares:    slices.Clone(s.shares),
		invShares: slices.Clone(s.invShares),
		tags:      slices.Clone(s.tags),
	}
}

func (b *BudgetThrottle) clone() Scheduler {
	c := *b
	c.shares = slices.Clone(b.shares)
	c.budget = slices.Clone(b.budget)
	return &c
}

func (w *WriteDrain) clone() Scheduler {
	c := *w
	c.inner = w.inner.clone()
	return &c
}

func (s *STFM) clone() Scheduler {
	c := *s
	c.interfAt = slices.Clone(s.interfAt)
	c.slowdowns = slices.Clone(s.slowdowns)
	return &c
}

func (a *ATLAS) clone() Scheduler {
	c := *a
	c.attained = slices.Clone(a.attained)
	return &c
}

// TCM's shuffle RNG is a value, so the struct copy forks its stream.
func (t *TCM) clone() Scheduler {
	c := *t
	c.rank = slices.Clone(t.rank)
	c.servedAt = slices.Clone(t.servedAt)
	c.bwCluster = slices.Clone(t.bwCluster)
	return &c
}

func (p *PARBS) clone() Scheduler {
	c := *p
	c.edge = slices.Clone(p.edge)
	c.markedCount = slices.Clone(p.markedCount)
	c.rank = slices.Clone(p.rank)
	return &c
}
