package memctrl

import (
	"errors"
	"fmt"
	"math"

	"bwpart/internal/dram"
	"bwpart/internal/mathx"
)

// Scheduler selects which queued request the controller issues next.
// Implementations live in this package and read the controller's queues
// directly. Pick must only return entries whose bank is ready at now.
type Scheduler interface {
	// Pick returns the chosen entry (Pick.Entry nil when none issuable).
	Pick(now int64, c *Controller, dev *dram.Device) Pick
	// OnIssue is invoked after the controller issues the picked entry, so
	// stateful policies (virtual time tags) can advance.
	OnIssue(e *Entry)
	// HeadOnly reports whether the policy only ever picks the oldest entry
	// of some app. The controller uses this to skip scans while all heads
	// are bank-blocked.
	HeadOnly() bool
	Name() string
}

// IdleSkipSafeScheduler is the opt-in marker for the cycle-skipping
// simulation kernel. A scheduler declaring IdleSkipSafe() == true promises
// that its Pick decisions depend only on the controller/device state at the
// Pick cycle, never on how many times (or at which cycles) Pick was called
// while nothing was issuable — so skipping the dead cycles of an idle span
// and scanning once at the wake cycle reproduces the naive loop's issue
// sequence exactly. Policies with time-anchored internal state (STFM's
// slowdown windows, ATLAS/TCM quanta) must not implement it (or return
// false): the kernel then falls back to ticking the controller every cycle
// while requests are queued.
type IdleSkipSafeScheduler interface {
	IdleSkipSafe() bool
}

// schedIdleSkipSafe reports whether s opted into idle-span skipping.
func schedIdleSkipSafe(s Scheduler) bool {
	m, ok := s.(IdleSkipSafeScheduler)
	return ok && m.IdleSkipSafe()
}

// BusySpanSafeScheduler is the opt-in marker for busy-span skipping, the
// weaker sibling of IdleSkipSafeScheduler for policies whose Pick IS
// stateful. A head-only scheduler declaring BusySpanSafe() == true promises
// that every piece of state its decisions read or write mutates only inside
// Pick (or OnIssue) — never between calls as a function of wall-clock time.
// Quantum and epoch clocks (ATLAS quanta, TCM recluster/shuffle timers,
// STFM's slowdown refresh, PARBS batch formation) qualify because they
// advance lazily from the now passed to Pick. Under that promise the
// controller may skip exactly the cycles at which Tick would not have
// called Pick anyway — for head-only policies those are fully determined by
// the cached nextTry gate and the completion queue — so the scheduler sees
// the identical sequence of (now, queue, bank) observations as under naive
// ticking, and its state evolves bit-identically. Policies that are already
// IdleSkipSafe do not need this: the controller prefers the stronger
// contract's more aggressive bound.
type BusySpanSafeScheduler interface {
	BusySpanSafe() bool
}

// schedBusySpanSafe reports whether s opted into busy-span skipping.
func schedBusySpanSafe(s Scheduler) bool {
	m, ok := s.(BusySpanSafeScheduler)
	return ok && m.BusySpanSafe()
}

// bankReady reports whether e's bank can begin new work at now, through the
// bank index cached at enqueue.
func bankReady(dev *dram.Device, e *Entry, now int64) bool {
	return dev.BankReadyAtIndex(int(e.bank)) <= now
}

// issuableHead returns app a's oldest entry if its bank is ready, else nil.
func issuableHead(c *Controller, dev *dram.Device, a int, now int64) *Entry {
	e := c.queues[a].peek()
	if e == nil || !bankReady(dev, e, now) {
		return nil
	}
	return e
}

// ---------------------------------------------------------------------------
// FCFS: the paper's No_partitioning baseline ("the memory controller serves
// all the memory requests based on a First Come First Served policy").

// FCFS serves the globally oldest issuable request.
type FCFS struct{}

// NewFCFS returns the FCFS policy.
func NewFCFS() *FCFS { return &FCFS{} }

func (*FCFS) Name() string   { return "FCFS" }
func (*FCFS) HeadOnly() bool { return true }
func (*FCFS) OnIssue(*Entry) {}

// IdleSkipSafe: Pick is a pure function of queue and bank state.
func (*FCFS) IdleSkipSafe() bool { return true }

func (*FCFS) Pick(now int64, c *Controller, dev *dram.Device) Pick {
	var best *Entry
	for a := range c.queues {
		e := issuableHead(c, dev, a, now)
		if e != nil && (best == nil || e.seq < best.seq) {
			best = e
		}
	}
	return Pick{Entry: best}
}

// ---------------------------------------------------------------------------
// FR-FCFS: first-ready, first-come-first-served (Rixner et al., ISCA'00).
// Row hits are served before row misses; ties broken by age. Only
// meaningful under the open-page policy; under close-page it degenerates to
// FCFS.

// FRFCFS prioritizes row-buffer hits over older row misses.
type FRFCFS struct {
	// MaxScanDepth bounds how deep into each app queue the row-hit scan
	// looks (0 = heads only). Real controllers have bounded associative
	// search over the request buffer.
	MaxScanDepth int
}

// NewFRFCFS returns an FR-FCFS policy scanning up to depth entries per app
// for row hits.
func NewFRFCFS(depth int) *FRFCFS { return &FRFCFS{MaxScanDepth: depth} }

func (*FRFCFS) Name() string   { return "FR-FCFS" }
func (*FRFCFS) HeadOnly() bool { return false }
func (*FRFCFS) OnIssue(*Entry) {}

// IdleSkipSafe: Pick is a pure function of queue, bank and row state.
func (*FRFCFS) IdleSkipSafe() bool { return true }

func (s *FRFCFS) Pick(now int64, c *Controller, dev *dram.Device) Pick {
	var bestHit, bestOld Pick
	for a := range c.queues {
		q := &c.queues[a]
		n := q.len()
		if n == 0 {
			continue
		}
		depth := s.MaxScanDepth
		if depth <= 0 || depth > n {
			depth = n
		}
		for i := 0; i < depth; i++ {
			e := q.at(i)
			if !bankReady(dev, e, now) {
				continue
			}
			if dev.RowHit(e.Coord) {
				if bestHit.Entry == nil || e.seq < bestHit.Entry.seq {
					bestHit = Pick{Entry: e, Depth: i}
				}
			}
			if i == 0 && (bestOld.Entry == nil || e.seq < bestOld.Entry.seq) {
				bestOld = Pick{Entry: e, Depth: 0}
			}
		}
	}
	if bestHit.Entry != nil {
		return bestHit
	}
	return bestOld
}

// ---------------------------------------------------------------------------
// Start-time fair partitioning: the paper's enforcement mechanism
// (Sec. IV-B), a modified DRAM Start-Time Fair scheduler. Each app a has a
// virtual start tag; the tag of its i-th served request is
//
//	S_a_i = S_a_{i-1} + 1/beta_a
//
// and the scheduler serves the pending app with the smallest next tag.
// Unlike classic start-time fair queueing the tag does not depend on
// arrival time, so an app that under-used its share earlier catches up
// later — exactly the paper's modification.

// StartTimeFair enforces a bandwidth share vector beta over applications.
type StartTimeFair struct {
	shares []float64
	// invShares caches 1/shares[a] (the per-issue tag increment) so the
	// per-pick loop and OnIssue avoid a float division; the cached quotient
	// is the identical float64, so tag evolution is bit-identical.
	invShares []float64
	tags      []float64
}

// NewStartTimeFair builds the partitioning scheduler for numApps apps with
// the given share vector (must be positive and of length numApps; it is
// normalized internally).
func NewStartTimeFair(shares []float64) (*StartTimeFair, error) {
	if len(shares) == 0 {
		return nil, errors.New("memctrl: empty share vector")
	}
	s := &StartTimeFair{
		shares:    make([]float64, len(shares)),
		invShares: make([]float64, len(shares)),
		tags:      make([]float64, len(shares)),
	}
	if err := s.SetShares(shares); err != nil {
		return nil, err
	}
	return s, nil
}

// SetShares replaces the share vector (e.g. at a repartitioning interval).
// Tags are preserved so accumulated credit/debt carries across intervals.
func (s *StartTimeFair) SetShares(shares []float64) error {
	if len(shares) != len(s.shares) {
		return fmt.Errorf("memctrl: share vector length %d, want %d", len(shares), len(s.shares))
	}
	total, err := shareTotal(shares)
	if err != nil {
		return err
	}
	for i, b := range shares {
		s.shares[i] = b / total
		s.invShares[i] = 1 / s.shares[i]
	}
	return nil
}

// shareTotal sums a share vector after checking every share and the sum are
// positive and finite (a sign test alone lets NaN through).
func shareTotal(shares []float64) (float64, error) {
	var total float64
	for _, b := range shares {
		total += b
	}
	if !mathx.AllPositive(shares) || math.IsInf(total, 0) {
		return 0, errors.New("memctrl: shares must be positive and finite")
	}
	return total, nil
}

// Shares returns the normalized share vector.
func (s *StartTimeFair) Shares() []float64 {
	out := make([]float64, len(s.shares))
	copy(out, s.shares)
	return out
}

func (*StartTimeFair) Name() string   { return "StartTimeFair" }
func (*StartTimeFair) HeadOnly() bool { return true }

// IdleSkipSafe: tags advance only on issue, never with wall-clock cycles.
func (*StartTimeFair) IdleSkipSafe() bool { return true }

func (s *StartTimeFair) Pick(now int64, c *Controller, dev *dram.Device) Pick {
	var best *Entry
	var bestTag float64
	for a := range c.queues {
		e := issuableHead(c, dev, a, now)
		if e == nil {
			continue
		}
		tag := s.tags[a] + s.invShares[a]
		if best == nil || tag < bestTag || (tag == bestTag && e.seq < best.seq) {
			best, bestTag = e, tag
		}
	}
	return Pick{Entry: best}
}

func (s *StartTimeFair) OnIssue(e *Entry) {
	s.tags[e.Req.App] += s.invShares[e.Req.App]
}

// ---------------------------------------------------------------------------
// Strict priority: the paper's Priority_APC / Priority_API schemes. Apps are
// ranked; a pending request of a higher-ranked app is always served before
// any lower-ranked app's request (oldest-first within an app). The paper
// notes this deliberately starves low-priority apps.

// Priority serves apps in a fixed rank order.
type Priority struct {
	rank []int // rank[app] = position (0 = highest priority)
}

// NewPriority builds a strict-priority scheduler. order lists app indices
// from highest to lowest priority and must be a permutation of 0..n-1.
func NewPriority(order []int) (*Priority, error) {
	n := len(order)
	if n == 0 {
		return nil, errors.New("memctrl: empty priority order")
	}
	rank := make([]int, n)
	seen := make([]bool, n)
	for pos, app := range order {
		if app < 0 || app >= n || seen[app] {
			return nil, fmt.Errorf("memctrl: order %v is not a permutation", order)
		}
		seen[app] = true
		rank[app] = pos
	}
	return &Priority{rank: rank}, nil
}

func (*Priority) Name() string   { return "Priority" }
func (*Priority) HeadOnly() bool { return true }
func (*Priority) OnIssue(*Entry) {}

// IdleSkipSafe: the rank permutation is fixed; Pick is pure.
func (*Priority) IdleSkipSafe() bool { return true }

func (p *Priority) Pick(now int64, c *Controller, dev *dram.Device) Pick {
	var best *Entry
	bestRank := len(p.rank)
	for a := range c.queues {
		e := issuableHead(c, dev, a, now)
		if e == nil {
			continue
		}
		r := len(p.rank)
		if a < len(p.rank) {
			r = p.rank[a]
		}
		if best == nil || r < bestRank || (r == bestRank && e.seq < best.seq) {
			best, bestRank = e, r
		}
	}
	return Pick{Entry: best}
}
