package cpu

import (
	"fmt"

	"bwpart/internal/mem"
)

// loadState is the serialized form of one load whose ROB entry is not yet
// ready, or that still holds an MLP slot: an in-flight load slot awaiting
// its Done (ready < 0), or a load the L1 answered in place, ready at cycle
// ready (id and addr unused).
type loadState struct {
	id    uint64
	addr  uint64
	ready int64
	slot  int32
	cold  bool
}

// CoreState is an opaque snapshot of a Core's mutable state. It shares no
// memory with the core: one state may restore any number of cores built
// with the same configuration and stream shape.
type CoreState struct {
	// baseIPC/maxLoads capture cfg fields refreshParams mutates for
	// dynamic streams.
	baseIPC  float64
	maxLoads int

	done             []bool // one per ROB entry: ready before the snapshot's cycle
	robHead          int
	robCount         int
	credit           float64
	outstandingLoads int
	nextRefresh      int64
	hasPending       bool
	pending          Instr
	loads            []loadState
	loadSeq          uint64
	stats            Stats
}

// Snapshot captures the core's mutable state before it ticks cycle now. A
// ROB entry keeps one flag, whether it is ready before now; loads that are
// not, or that still hold an MLP slot, are listed: in-flight loads by id —
// the requests themselves are re-created by Restore and re-linked to
// whoever retained them (caches, controller) via mem.Resolver — and loads
// answered in place with their ready cycle and whether they hold an MLP
// slot.
func (c *Core) Snapshot(now int64) *CoreState {
	hits := 0
	c.eachPendingHit(now, func(int, bool) { hits++ })
	st := &CoreState{
		baseIPC:          c.cfg.BaseIPC,
		maxLoads:         c.cfg.MaxOutstandingLoads,
		done:             make([]bool, len(c.rob)),
		robHead:          c.robHead,
		robCount:         c.robCount,
		credit:           c.credit,
		outstandingLoads: c.outstandingLoads,
		nextRefresh:      c.nextRefresh,
		hasPending:       c.pending != nil,
		loads:            make([]loadState, len(c.active), len(c.active)+hits),
		loadSeq:          c.loadSeq,
		stats:            c.stats,
	}
	if c.pending != nil {
		st.pending = *c.pending
	}
	for i, e := range c.rob {
		st.done[i] = e.ready < now
	}
	for i, ls := range c.active {
		st.loads[i] = loadState{id: ls.id, addr: ls.req.Addr, ready: -1, slot: int32(ls.slot), cold: ls.cold}
	}
	c.eachPendingHit(now, func(slot int, cold bool) {
		st.loads = append(st.loads, loadState{ready: c.rob[slot].ready, slot: int32(slot), cold: cold})
	})
	return st
}

// eachPendingHit calls f, oldest first, with the ROB slot of every load
// answered in place that is not ready before now or still holds an MLP slot
// (a cold load ready in the cycle before now is released only by the next
// Tick), and whether it holds one. No other entry has a ready cycle from
// now on short of notReady: a Done records the cycle it runs in.
func (c *Core) eachPendingHit(now int64, f func(slot int, cold bool)) {
	for i, slot := 0, c.robHead; i < c.robCount; i++ {
		cold := false
		for _, h := range c.coldHits {
			cold = cold || h.slot == slot
		}
		if r := c.rob[slot].ready; cold || r >= now && r != notReady {
			f(slot, cold)
		}
		if slot++; slot == len(c.rob) {
			slot = 0
		}
	}
}

// Restore overwrites the core's mutable state from a snapshot taken on a
// core with the same ROB size. In-flight load slots are rebuilt with fresh
// completion closures pointing at this core; the free pool is dropped (it
// regrows on demand). Loads answered in place get their ready cycles back.
func (c *Core) Restore(st *CoreState) error {
	if st == nil {
		return fmt.Errorf("cpu: nil core state")
	}
	if len(st.done) != len(c.rob) {
		return fmt.Errorf("cpu: ROB size mismatch: state has %d, core has %d", len(st.done), len(c.rob))
	}
	c.cfg.BaseIPC = st.baseIPC
	c.cfg.MaxOutstandingLoads = st.maxLoads
	for i, done := range st.done {
		c.rob[i].ready = notReady
		if done {
			c.rob[i].ready = 0
		}
	}
	c.robHead = st.robHead
	c.robCount = st.robCount
	c.credit = st.credit
	c.outstandingLoads = st.outstandingLoads
	c.nextRefresh = st.nextRefresh
	if st.hasPending {
		c.pendingBuf = st.pending
		c.pending = &c.pendingBuf
	} else {
		c.pending = nil
	}
	c.loadFree = c.loadFree[:0]
	c.active = c.active[:0]
	c.coldHits = c.coldHits[:0]
	for _, ld := range st.loads {
		if ld.ready >= 0 {
			c.rob[ld.slot].ready = ld.ready
			if ld.cold {
				c.coldHits = append(c.coldHits, coldHit{ready: ld.ready, slot: int(ld.slot)})
			}
			continue
		}
		ls := c.buildLoadSlot()
		ls.slot = int(ld.slot)
		ls.cold = ld.cold
		ls.id = ld.id
		ls.req.Addr = ld.addr
		ls.req.Origin.Key = ld.id
		ls.apos = len(c.active)
		c.active = append(c.active, ls)
	}
	c.loadSeq = st.loadSeq
	c.stats = st.stats
	// A snapshot is taken between Run calls, where the core has run ahead
	// of nothing: the restored core may tick at any cycle.
	c.ahead, c.open = 0, false
	return nil
}

// LoadRequest resolves an in-flight load id (mem.Origin.Key of an
// OriginCoreLoad request) to the live request owned by this core. The
// active set is bounded by the MSHR/MLP limits, so a linear scan is fine.
func (c *Core) LoadRequest(id uint64) (*mem.Request, error) {
	for _, ls := range c.active {
		if ls.id == id {
			return &ls.req, nil
		}
	}
	return nil, fmt.Errorf("cpu: no in-flight load with id %d on app %d", id, c.app)
}
