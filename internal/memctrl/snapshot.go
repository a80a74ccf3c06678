package memctrl

import (
	"fmt"
	"sort"

	"bwpart/internal/mem"
)

// This file implements the controller side of the system checkpoint
// contract (sim.System.Snapshot/Restore/Fork): a serializable snapshot of
// every queued entry, every pending completion, the arrival/completion
// sequence counters, and the scheduling policy's mutable state — captured
// without aliasing any live object, so a checkpoint stays valid while the
// controller (or a fork restored from it) keeps running.

// snapshottableSched is the checkpoint contract a scheduling policy must
// implement to be snapshot/forkable. All schedulers in this package
// implement it.
type snapshottableSched interface {
	Scheduler
	// cloneFresh returns a new scheduler of the same concrete type carrying
	// only configuration — share vectors and cached reciprocals are copied
	// verbatim, never re-derived (re-normalizing would drift floats and
	// break bit-identity) — with all mutable state zeroed.
	cloneFresh() Scheduler
	// exportState returns a deep copy of the mutable state (no aliasing of
	// live slices or entries; queued-entry references are exported as
	// arrival sequence numbers).
	exportState() any
	// importState installs exported state into this (fresh) scheduler.
	// Called after the controller's queues are rebuilt, so entry-reference
	// state can be resolved against them via c.
	importState(c *Controller, st any) error
}

// checkSnapshottable verifies s (and any wrapped inner policy) implements
// the checkpoint contract.
func checkSnapshottable(s Scheduler) error {
	ss, ok := s.(snapshottableSched)
	if !ok {
		return fmt.Errorf("memctrl: scheduler %q does not support checkpointing", s.Name())
	}
	if w, isWrap := ss.(*WriteDrain); isWrap {
		return checkSnapshottable(w.inner)
	}
	return nil
}

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
	// schedProto is a fresh clone carrying the policy's configuration;
	// schedState is its exported mutable state. Each Restore clones the
	// proto again, so one checkpoint can seed many forks.
	schedProto Scheduler
	schedState any
}

// Snapshot captures the controller's complete scheduling state. The
// returned state shares no memory with the controller.
func (c *Controller) Snapshot() (*ControllerState, error) {
	if err := checkSnapshottable(c.sched); err != nil {
		return nil, err
	}
	ss := c.sched.(snapshottableSched)
	st := &ControllerState{
		queues:      make([][]entryState, c.numApps),
		completions: make([]compState, len(c.completions)),
		seq:         c.seq,
		compSeq:     c.compSeq,
		inFlight:    c.inFlight,
		nextTry:     c.nextTry,
		maxInFlight: c.maxInFlight,
		stats:       append([]AppStats(nil), c.stats...),
		schedProto:  ss.cloneFresh(),
		schedState:  ss.exportState(),
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
	return st, nil
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

	// Scheduler: clone from the proto (never install the proto itself — one
	// checkpoint may seed many forks), install it, then import the mutable
	// state, which may resolve entry references against the rebuilt queues.
	proto, ok := st.schedProto.(snapshottableSched)
	if !ok {
		return fmt.Errorf("memctrl: checkpoint scheduler %q does not support restoring", st.schedProto.Name())
	}
	clone := proto.cloneFresh()
	c.applyScheduler(clone)
	if err := clone.(snapshottableSched).importState(c, st.schedState); err != nil {
		return err
	}
	return nil
}

// entriesBySeq builds an arrival-sequence → entry map over every queued
// entry, for scheduler states that reference entries (PARBS batch marks).
func (c *Controller) entriesBySeq() map[int64]*Entry {
	m := make(map[int64]*Entry, c.queued)
	for a := range c.queues {
		q := &c.queues[a]
		n := q.len()
		for i := 0; i < n; i++ {
			e := q.at(i)
			m[e.seq] = e
		}
	}
	return m
}

// copyInto copies src into dst with a length check (shared by the
// scheduler importState implementations).
func copyInto[T any](dst, src []T, what string) error {
	if len(src) != len(dst) {
		return fmt.Errorf("memctrl: %s state has %d entries, scheduler has %d", what, len(src), len(dst))
	}
	copy(dst, src)
	return nil
}

// ---------------------------------------------------------------------------
// Stateless / config-only policies.

func (*FCFS) cloneFresh() Scheduler              { return &FCFS{} }
func (*FCFS) exportState() any                   { return nil }
func (*FCFS) importState(*Controller, any) error { return nil }

func (s *FRFCFS) cloneFresh() Scheduler            { return &FRFCFS{MaxScanDepth: s.MaxScanDepth} }
func (*FRFCFS) exportState() any                   { return nil }
func (*FRFCFS) importState(*Controller, any) error { return nil }

func (p *Priority) cloneFresh() Scheduler            { return &Priority{rank: append([]int(nil), p.rank...)} }
func (*Priority) exportState() any                   { return nil }
func (*Priority) importState(*Controller, any) error { return nil }

// ---------------------------------------------------------------------------
// StartTimeFair: virtual start tags.

func (s *StartTimeFair) cloneFresh() Scheduler {
	return &StartTimeFair{
		shares:    append([]float64(nil), s.shares...),
		invShares: append([]float64(nil), s.invShares...),
		tags:      make([]float64, len(s.tags)),
	}
}

func (s *StartTimeFair) exportState() any { return append([]float64(nil), s.tags...) }

func (s *StartTimeFair) importState(_ *Controller, st any) error {
	tags, ok := st.([]float64)
	if !ok {
		return fmt.Errorf("memctrl: bad StartTimeFair state %T", st)
	}
	return copyInto(s.tags, tags, "StartTimeFair tag")
}

// ---------------------------------------------------------------------------
// BudgetThrottle: per-period budgets on an anchored grid.

type budgetThrottleState struct {
	budget    []float64
	periodEnd int64
	perPeriod float64
	init      bool
}

func (b *BudgetThrottle) cloneFresh() Scheduler {
	return &BudgetThrottle{
		shares:       append([]float64(nil), b.shares...),
		PeriodCycles: b.PeriodCycles,
		budget:       make([]float64, len(b.budget)),
	}
}

func (b *BudgetThrottle) exportState() any {
	return budgetThrottleState{
		budget:    append([]float64(nil), b.budget...),
		periodEnd: b.periodEnd,
		perPeriod: b.perPeriod,
		init:      b.init,
	}
}

func (b *BudgetThrottle) importState(_ *Controller, st any) error {
	s, ok := st.(budgetThrottleState)
	if !ok {
		return fmt.Errorf("memctrl: bad BudgetThrottle state %T", st)
	}
	if err := copyInto(b.budget, s.budget, "BudgetThrottle budget"); err != nil {
		return err
	}
	b.periodEnd = s.periodEnd
	b.perPeriod = s.perPeriod
	b.init = s.init
	return nil
}

// ---------------------------------------------------------------------------
// WriteDrain: hysteresis flag plus the wrapped policy's state.

type writeDrainState struct {
	draining bool
	inner    any
}

func (w *WriteDrain) cloneFresh() Scheduler {
	inner := w.inner.(snapshottableSched).cloneFresh()
	return &WriteDrain{inner: inner, HighWatermark: w.HighWatermark, DrainTo: w.DrainTo}
}

func (w *WriteDrain) exportState() any {
	return writeDrainState{draining: w.draining, inner: w.inner.(snapshottableSched).exportState()}
}

func (w *WriteDrain) importState(c *Controller, st any) error {
	s, ok := st.(writeDrainState)
	if !ok {
		return fmt.Errorf("memctrl: bad WriteDrain state %T", st)
	}
	w.draining = s.draining
	return w.inner.(snapshottableSched).importState(c, s.inner)
}

// ---------------------------------------------------------------------------
// STFM: slowdown-window counters.

type stfmState struct {
	start      int64
	interfAt   []int64
	slowdowns  []float64
	lastUpdate int64
}

func (s *STFM) cloneFresh() Scheduler {
	return &STFM{
		Alpha:     s.Alpha,
		windowLen: s.windowLen,
		interfAt:  make([]int64, len(s.interfAt)),
		slowdowns: make([]float64, len(s.slowdowns)),
	}
}

func (s *STFM) exportState() any {
	return stfmState{
		start:      s.start,
		interfAt:   append([]int64(nil), s.interfAt...),
		slowdowns:  append([]float64(nil), s.slowdowns...),
		lastUpdate: s.lastUpdate,
	}
}

func (s *STFM) importState(_ *Controller, st any) error {
	x, ok := st.(stfmState)
	if !ok {
		return fmt.Errorf("memctrl: bad STFM state %T", st)
	}
	if err := copyInto(s.interfAt, x.interfAt, "STFM interference"); err != nil {
		return err
	}
	if err := copyInto(s.slowdowns, x.slowdowns, "STFM slowdown"); err != nil {
		return err
	}
	s.start = x.start
	s.lastUpdate = x.lastUpdate
	return nil
}

// ---------------------------------------------------------------------------
// ATLAS: attained service with quantum decay.

type atlasState struct {
	attained    []float64
	burst       int64
	quantumEnd  int64
	initialized bool
}

func (a *ATLAS) cloneFresh() Scheduler {
	return &ATLAS{
		QuantumCycles: a.QuantumCycles,
		Decay:         a.Decay,
		attained:      make([]float64, len(a.attained)),
	}
}

func (a *ATLAS) exportState() any {
	return atlasState{
		attained:    append([]float64(nil), a.attained...),
		burst:       a.burst,
		quantumEnd:  a.quantumEnd,
		initialized: a.initialized,
	}
}

func (a *ATLAS) importState(_ *Controller, st any) error {
	s, ok := st.(atlasState)
	if !ok {
		return fmt.Errorf("memctrl: bad ATLAS state %T", st)
	}
	if err := copyInto(a.attained, s.attained, "ATLAS attained"); err != nil {
		return err
	}
	a.burst = s.burst
	a.quantumEnd = s.quantumEnd
	a.initialized = s.initialized
	return nil
}

// ---------------------------------------------------------------------------
// TCM: cluster ranks, quantum clocks, and the shuffle RNG stream.

type tcmState struct {
	rank        []int
	servedAt    []int64
	nextCluster int64
	nextShuffle int64
	rng         uint64
	bwCluster   []int
	init        bool
}

func (t *TCM) cloneFresh() Scheduler {
	return &TCM{
		ClusterQuantum: t.ClusterQuantum,
		ShuffleQuantum: t.ShuffleQuantum,
		LatencyShare:   t.LatencyShare,
		rank:           make([]int, len(t.rank)),
		servedAt:       make([]int64, len(t.servedAt)),
	}
}

func (t *TCM) exportState() any {
	return tcmState{
		rank:        append([]int(nil), t.rank...),
		servedAt:    append([]int64(nil), t.servedAt...),
		nextCluster: t.nextCluster,
		nextShuffle: t.nextShuffle,
		rng:         t.rng.State(),
		bwCluster:   append([]int(nil), t.bwCluster...),
		init:        t.init,
	}
}

func (t *TCM) importState(_ *Controller, st any) error {
	s, ok := st.(tcmState)
	if !ok {
		return fmt.Errorf("memctrl: bad TCM state %T", st)
	}
	if err := copyInto(t.rank, s.rank, "TCM rank"); err != nil {
		return err
	}
	if err := copyInto(t.servedAt, s.servedAt, "TCM servedAt"); err != nil {
		return err
	}
	t.nextCluster = s.nextCluster
	t.nextShuffle = s.nextShuffle
	t.rng.Restore(s.rng)
	t.bwCluster = append(t.bwCluster[:0], s.bwCluster...)
	t.init = s.init
	return nil
}

// ---------------------------------------------------------------------------
// PARBS: batch marks reference live entries, exported as arrival sequence
// numbers and re-bound to the rebuilt queue entries on import.

type parbsState struct {
	markedSeqs  []int64
	markedCount []int
	rank        []int
}

func (p *PARBS) cloneFresh() Scheduler {
	return &PARBS{
		MarkingCap:  p.MarkingCap,
		marked:      make(map[*Entry]bool),
		markedCount: make([]int, len(p.markedCount)),
		rank:        make([]int, len(p.rank)),
	}
}

func (p *PARBS) exportState() any {
	seqs := make([]int64, 0, len(p.marked))
	for e := range p.marked {
		seqs = append(seqs, e.seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return parbsState{
		markedSeqs:  seqs,
		markedCount: append([]int(nil), p.markedCount...),
		rank:        append([]int(nil), p.rank...),
	}
}

func (p *PARBS) importState(c *Controller, st any) error {
	s, ok := st.(parbsState)
	if !ok {
		return fmt.Errorf("memctrl: bad PARBS state %T", st)
	}
	if err := copyInto(p.markedCount, s.markedCount, "PARBS marked count"); err != nil {
		return err
	}
	if err := copyInto(p.rank, s.rank, "PARBS rank"); err != nil {
		return err
	}
	bySeq := c.entriesBySeq()
	for _, sq := range s.markedSeqs {
		e, found := bySeq[sq]
		if !found {
			return fmt.Errorf("memctrl: PARBS marked entry seq %d not in any queue", sq)
		}
		p.marked[e] = true
	}
	return nil
}
