package memctrl

import (
	"errors"

	"bwpart/internal/dram"
	"bwpart/internal/xrand"
)

// This file implements simplified but mechanism-faithful versions of the
// heuristic memory schedulers the paper positions itself against
// (Sec. II and VII): STFM (Mutlu & Moscibroda, MICRO'07), PARBS (ISCA'08),
// ATLAS (HPCA'10) and TCM (MICRO'10). They let the experiment harness show
// where each heuristic's implicit bandwidth partitioning lands relative to
// the model-derived optimal schemes.

// ---------------------------------------------------------------------------
// STFM: Stall-Time Fair Memory scheduling. Estimates each application's
// memory slowdown from the controller's interference counters
// (T_shared / (T_shared - T_interference)) and, when the ratio between the
// most and least slowed applications exceeds alpha, prioritizes the most
// slowed one; otherwise serves oldest-first.

// STFM is the stall-time fair scheduler.
type STFM struct {
	// Alpha is the unfairness threshold that triggers prioritization
	// (paper value 1.10).
	Alpha float64
	// window tracking: slowdowns are computed over the cycles since the
	// slowdown window last restarted (every windowLen cycles) to track phase
	// behavior.
	start      int64
	interfAt   []int64 // interference counter reading at window start
	windowLen  int64
	slowdowns  []float64
	lastUpdate int64
}

// NewSTFM builds an STFM scheduler for numApps applications.
func NewSTFM(numApps int, alpha float64) (*STFM, error) {
	if numApps <= 0 {
		return nil, errors.New("memctrl: STFM needs at least one app")
	}
	if alpha < 1 {
		return nil, errors.New("memctrl: STFM alpha must be >= 1")
	}
	return &STFM{
		Alpha:     alpha,
		interfAt:  make([]int64, numApps),
		slowdowns: make([]float64, numApps),
		windowLen: 100_000,
	}, nil
}

func (*STFM) Name() string   { return "STFM" }
func (*STFM) HeadOnly() bool { return true }
func (*STFM) OnIssue(*Entry) {}

// span: busy-safe; the slowdown window (lastUpdate, start, interfAt) advances
// only inside Pick via updateSlowdowns, lazily from Pick's now — no state
// moves between Pick calls, so skipping non-Pick cycles is exact.
func (*STFM) span() spanClass { return spanBusy }

// updateSlowdowns refreshes the per-app slowdown estimates (cheap; runs at
// most once per 1024 cycles).
func (s *STFM) updateSlowdowns(now int64, c *Controller) {
	if now-s.lastUpdate < 1024 {
		return
	}
	s.lastUpdate = now
	if now-s.start >= s.windowLen {
		for a := range s.interfAt {
			s.interfAt[a] = c.stats[a].InterferenceCycles
		}
		s.start = now
		return
	}
	shared := now - s.start
	if shared <= 0 {
		return
	}
	for a := range s.slowdowns {
		interf := c.stats[a].InterferenceCycles - s.interfAt[a]
		alone := shared - interf
		if alone < 1 {
			alone = 1
		}
		s.slowdowns[a] = float64(shared) / float64(alone)
	}
}

func (s *STFM) Pick(now int64, c *Controller, dev *dram.Device) Pick {
	s.updateSlowdowns(now, c)
	// Find max/min slowdown among apps with pending work.
	maxApp, minSlow, maxSlow := -1, 0.0, 0.0
	first := true
	for a := range c.queues {
		if c.queues[a].len() == 0 {
			continue
		}
		sd := s.slowdowns[a]
		if sd < 1 {
			sd = 1
		}
		if first {
			minSlow, maxSlow, maxApp = sd, sd, a
			first = false
			continue
		}
		if sd > maxSlow {
			maxSlow, maxApp = sd, a
		}
		if sd < minSlow {
			minSlow = sd
		}
	}
	if maxApp >= 0 && minSlow > 0 && maxSlow/minSlow > s.Alpha {
		if e := issuableHead(c, dev, maxApp, now); e != nil {
			return Pick{Entry: e}
		}
	}
	// Fairness acceptable (or the slowed app is bank-blocked): oldest first.
	return (&FCFS{}).Pick(now, c, dev)
}

// ---------------------------------------------------------------------------
// ATLAS: Least-Attained-Service scheduling. Tracks each application's
// attained memory service (bus cycles) with exponential decay across long
// quanta and always serves the application that has attained the least.

// ATLAS is the least-attained-service scheduler.
type ATLAS struct {
	// QuantumCycles is the service quantum after which attained service is
	// decayed (paper uses 10M; scaled here).
	QuantumCycles int64
	// Decay is the exponential decay factor per quantum (paper: 0.875).
	Decay float64

	attained    []float64
	burst       int64
	quantumEnd  int64
	initialized bool
}

// NewATLAS builds an ATLAS scheduler for numApps applications.
func NewATLAS(numApps int, quantum int64, decay float64) (*ATLAS, error) {
	if numApps <= 0 {
		return nil, errors.New("memctrl: ATLAS needs at least one app")
	}
	if quantum <= 0 {
		return nil, errors.New("memctrl: ATLAS quantum must be positive")
	}
	if decay < 0 || decay >= 1 {
		return nil, errors.New("memctrl: ATLAS decay must be in [0,1)")
	}
	return &ATLAS{QuantumCycles: quantum, Decay: decay, attained: make([]float64, numApps)}, nil
}

func (*ATLAS) Name() string   { return "ATLAS" }
func (*ATLAS) HeadOnly() bool { return true }

// span: busy-safe; attained service moves in OnIssue; the quantum decay fires
// lazily inside Pick when now crosses quantumEnd. A quantum boundary inside
// a skipped span needs no wakeup — the naive loop would not have called
// Pick there either, and the first Pick after the span applies the same
// single decay at the same now.
func (*ATLAS) span() spanClass { return spanBusy }

func (a *ATLAS) OnIssue(e *Entry) {
	a.attained[e.Req.App] += float64(a.burst)
}

func (a *ATLAS) Pick(now int64, c *Controller, dev *dram.Device) Pick {
	if !a.initialized {
		a.burst = dev.Timing().Burst
		a.quantumEnd = now + a.QuantumCycles
		a.initialized = true
	}
	if now >= a.quantumEnd {
		for i := range a.attained {
			a.attained[i] *= a.Decay
		}
		a.quantumEnd = now + a.QuantumCycles
	}
	var best *Entry
	bestAS := 0.0
	for app := range c.queues {
		e := issuableHead(c, dev, app, now)
		if e == nil {
			continue
		}
		as := a.attained[app]
		if best == nil || as < bestAS || (as == bestAS && e.seq < best.seq) {
			best, bestAS = e, as
		}
	}
	return Pick{Entry: best}
}

// ---------------------------------------------------------------------------
// TCM: Thread Cluster Memory scheduling. Periodically splits applications
// into a latency-sensitive cluster (low bandwidth usage, strictly
// prioritized) and a bandwidth-sensitive cluster (ranks shuffled
// periodically for fairness).

// TCM is the thread-cluster scheduler.
type TCM struct {
	// ClusterQuantum is the re-clustering interval in cycles.
	ClusterQuantum int64
	// ShuffleQuantum is the bandwidth-cluster rank reshuffle interval.
	ShuffleQuantum int64
	// LatencyShare is the fraction of total bandwidth usage below which
	// applications (in ascending-usage order) join the latency cluster
	// (paper: ClusterThresh ~ 0.2-0.3 of total).
	LatencyShare float64

	rank        []int // rank[app]: lower = higher priority
	servedAt    []int64
	nextCluster int64
	nextShuffle int64
	rng         xrand.RNG
	bwCluster   []int
	init        bool
}

// NewTCM builds a TCM scheduler for numApps applications.
func NewTCM(numApps int, clusterQuantum, shuffleQuantum int64, latencyShare float64, seed int64) (*TCM, error) {
	if numApps <= 0 {
		return nil, errors.New("memctrl: TCM needs at least one app")
	}
	if clusterQuantum <= 0 || shuffleQuantum <= 0 {
		return nil, errors.New("memctrl: TCM quanta must be positive")
	}
	if latencyShare < 0 || latencyShare > 1 {
		return nil, errors.New("memctrl: TCM latency share must be in [0,1]")
	}
	t := &TCM{
		ClusterQuantum: clusterQuantum,
		ShuffleQuantum: shuffleQuantum,
		LatencyShare:   latencyShare,
		rank:           make([]int, numApps),
		servedAt:       make([]int64, numApps),
		rng:            *xrand.New(xrand.Mix(uint64(seed), xrand.HashString("TCM"))),
	}
	for i := range t.rank {
		t.rank[i] = i
	}
	return t, nil
}

func (*TCM) Name() string   { return "TCM" }
func (*TCM) HeadOnly() bool { return true }
func (*TCM) OnIssue(*Entry) {}

// span: busy-safe; reclustering and rank shuffling (and the RNG they consume)
// fire lazily inside Pick when now crosses the quantum clocks; nothing
// moves between Pick calls.
func (*TCM) span() spanClass { return spanBusy }

// recluster recomputes clusters from the bandwidth used during the last
// quantum.
func (t *TCM) recluster(now int64, c *Controller) {
	n := len(t.rank)
	usage := make([]int64, n)
	var total int64
	for a := 0; a < n; a++ {
		served := c.stats[a].Served()
		usage[a] = served - t.servedAt[a]
		t.servedAt[a] = served
		total += usage[a]
	}
	// Ascending usage order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && usage[order[j]] < usage[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	// Latency cluster: lowest-usage apps until the share threshold.
	t.bwCluster = t.bwCluster[:0]
	var cum int64
	pos := 0
	for _, app := range order {
		cum += usage[app]
		if total == 0 || float64(cum) <= t.LatencyShare*float64(total) {
			t.rank[app] = pos // latency cluster: fixed high priority
			pos++
		} else {
			t.bwCluster = append(t.bwCluster, app)
		}
	}
	t.assignBWRanks(pos)
}

// assignBWRanks (re)assigns ranks to the bandwidth cluster starting at pos,
// in the cluster slice's current (possibly shuffled) order.
func (t *TCM) assignBWRanks(pos int) {
	for _, app := range t.bwCluster {
		t.rank[app] = pos
		pos++
	}
}

func (t *TCM) shuffle() {
	t.rng.Shuffle(len(t.bwCluster), func(i, j int) {
		t.bwCluster[i], t.bwCluster[j] = t.bwCluster[j], t.bwCluster[i]
	})
	t.assignBWRanks(len(t.rank) - len(t.bwCluster))
}

func (t *TCM) Pick(now int64, c *Controller, dev *dram.Device) Pick {
	if !t.init || now >= t.nextCluster {
		t.recluster(now, c)
		t.nextCluster = now + t.ClusterQuantum
		t.init = true
	}
	if now >= t.nextShuffle {
		t.shuffle()
		t.nextShuffle = now + t.ShuffleQuantum
	}
	var best *Entry
	bestRank := len(t.rank)
	for app := range c.queues {
		e := issuableHead(c, dev, app, now)
		if e == nil {
			continue
		}
		r := t.rank[app]
		if best == nil || r < bestRank || (r == bestRank && e.seq < best.seq) {
			best, bestRank = e, r
		}
	}
	return Pick{Entry: best}
}

// ---------------------------------------------------------------------------
// PARBS: Parallelism-Aware Batch Scheduling. Forms batches of the oldest
// requests (up to a per-app cap); within a batch, applications with fewer
// marked requests rank higher (shortest-job-first preserves intra-app bank
// parallelism); batched requests strictly precede unbatched ones.

// PARBS is the batch scheduler.
//
// A batch marks a prefix of each app queue, and entries only ever leave a
// queue (new arrivals take larger sequence numbers), so the marked entries
// of app a are exactly its queued entries with seq <= edge[a]. This holds
// even when entries leave out of order, as under WriteDrain: a marked entry
// that leaves is counted off in OnIssue, and an unmarked one was never in
// the set. Marks are thus plain values, copied with the scheduler.
type PARBS struct {
	// MarkingCap is the maximum requests marked per application per batch
	// (paper: 5).
	MarkingCap int

	// edge[a] is the sequence number of app a's last marked entry; the
	// initial 0 marks nothing, as sequence numbers start at 1.
	edge        []int64
	markedCount []int // marked entries still queued, per app
	marked      int   // sum of markedCount; a new batch forms at 0
	rank        []int
}

// NewPARBS builds a PARBS scheduler for numApps applications.
func NewPARBS(numApps, markingCap int) (*PARBS, error) {
	if numApps <= 0 {
		return nil, errors.New("memctrl: PARBS needs at least one app")
	}
	if markingCap <= 0 {
		return nil, errors.New("memctrl: PARBS marking cap must be positive")
	}
	return &PARBS{
		MarkingCap:  markingCap,
		edge:        make([]int64, numApps),
		markedCount: make([]int, numApps),
		rank:        make([]int, numApps),
	}, nil
}

func (*PARBS) Name() string   { return "PARBS" }
func (*PARBS) HeadOnly() bool { return true }

// span: busy-safe; batches form inside Pick (when the previous batch drains)
// and drain via OnIssue; there are no wall-clock quanta at all.
func (*PARBS) span() spanClass { return spanBusy }

// isMarked reports whether e, queued for app a, belongs to the current batch.
func (p *PARBS) isMarked(e *Entry, a int) bool { return e.seq <= p.edge[a] }

func (p *PARBS) OnIssue(e *Entry) {
	if a := e.Req.App; p.isMarked(e, a) {
		p.markedCount[a]--
		p.marked--
	}
}

// newBatch marks up to MarkingCap oldest requests per app and ranks apps by
// marked count ascending (shortest first). It runs only once the previous
// batch has fully drained, so no queued entry is marked yet.
func (p *PARBS) newBatch(c *Controller) {
	for a := range c.queues {
		q := &c.queues[a]
		n := q.len()
		if n > p.MarkingCap {
			n = p.MarkingCap
		}
		if n > 0 {
			p.edge[a] = q.at(n - 1).seq
		}
		p.markedCount[a] = n
		p.marked += n
	}
	// Rank by marked count ascending; ties by app index.
	n := len(p.rank)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && p.markedCount[order[j]] < p.markedCount[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for pos, app := range order {
		p.rank[app] = pos
	}
}

func (p *PARBS) Pick(now int64, c *Controller, dev *dram.Device) Pick {
	if p.marked == 0 && c.queued > 0 {
		p.newBatch(c)
	}
	var bestMarked, bestUnmarked *Entry
	bestRank := len(p.rank)
	for app := range c.queues {
		e := issuableHead(c, dev, app, now)
		if e == nil {
			continue
		}
		if p.isMarked(e, app) {
			r := p.rank[app]
			if bestMarked == nil || r < bestRank || (r == bestRank && e.seq < bestMarked.seq) {
				bestMarked, bestRank = e, r
			}
		} else if bestUnmarked == nil || e.seq < bestUnmarked.seq {
			bestUnmarked = e
		}
	}
	if bestMarked != nil {
		return Pick{Entry: bestMarked}
	}
	return Pick{Entry: bestUnmarked}
}
