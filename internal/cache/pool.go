package cache

import (
	"fmt"

	"bwpart/internal/mem"
)

// This file holds the engine's allocation-free plumbing. The saturated-system
// profile was dominated by per-access garbage: a closure per scheduled hit
// callback and miss send, a fresh fill request per miss, and a fresh
// writeback request per dirty eviction.
// All of these have bounded lifetimes that end in an observable event (the
// event fires; the fill's Done runs; the writeback's Done runs), so each
// is recycled through a small free list instead of re-allocated.

// cev is one scheduled cache action on a request: forward it to the lower
// level (send) or deliver its completion callback (!send). Carrying the
// request itself — rather than a bare closure — keeps the event queue
// serializable: a checkpoint captures the request's identity and a restore
// re-links the event to the restored request object.
type cev struct {
	cycle int64
	req   *mem.Request
	send  bool
}

// cacheEvents is the cache's deterministic future-event list. Every event is
// scheduled HitLatency cycles after the access that raises it, and accesses
// arrive in nondecreasing cycle order, so push order already is dispatch
// order (by cycle, ties in scheduling order) and the list is a head-indexed
// FIFO rather than a heap. push panics on an event due before the tail,
// which would break that premise.
type cacheEvents struct {
	q    []cev // q[head:] is pending, in dispatch order
	head int
}

// scheduleDone schedules req.Done(cycle) at cycle (hit callbacks). The
// request must have a completion callback; callers guard.
func (q *cacheEvents) scheduleDone(cycle int64, req *mem.Request) {
	q.push(cev{cycle: cycle, req: req})
}

// scheduleSend schedules req to be sent to the lower level at cycle.
func (q *cacheEvents) scheduleSend(cycle int64, req *mem.Request) {
	q.push(cev{cycle: cycle, req: req, send: true})
}

func (q *cacheEvents) push(ev cev) {
	if n := len(q.q); n > q.head && ev.cycle < q.q[n-1].cycle {
		panic(fmt.Sprintf("cache event at cycle %d pushed behind one at cycle %d", ev.cycle, q.q[n-1].cycle))
	}
	if len(q.q) == cap(q.q) && q.head >= len(q.q)/2 {
		// At least half the array is spent: slide the pending events to the
		// front rather than grow it.
		n := copy(q.q, q.q[q.head:])
		clear(q.q[n:])
		q.q, q.head = q.q[:n], 0
	}
	q.q = append(q.q, ev)
}

// due pops and returns the earliest event if it is due by now.
func (q *cacheEvents) due(now int64) (cev, bool) {
	if q.head == len(q.q) || q.q[q.head].cycle > now {
		return cev{}, false
	}
	ev := q.q[q.head]
	q.q[q.head] = cev{} // drop the request reference
	q.head++
	if q.head == len(q.q) {
		q.q, q.head = q.q[:0], 0
	}
	return ev, true
}

// pending returns the scheduled events in dispatch order.
func (q *cacheEvents) pending() []cev { return q.q[q.head:] }

// next returns the earliest pending cycle and whether one exists.
func (q *cacheEvents) next() (int64, bool) {
	if q.head == len(q.q) {
		return 0, false
	}
	return q.q[q.head].cycle, true
}

// reset empties the list.
func (q *cacheEvents) reset() {
	clear(q.q)
	q.q, q.head = q.q[:0], 0
}

// wbReq is a pooled writeback request. Its Done callback — invoked when
// the write retires at whatever level absorbs it — returns it to the free
// list, which is exactly when the request memory is safe to reuse.
type wbReq struct {
	req mem.Request
}

// wbPool recycles writeback requests.
type wbPool struct {
	free []*wbReq
	// comp is the owning cache's snapshot id, stamped into each handed-out
	// request's Origin so checkpoints can attribute retained writebacks.
	comp int32
}

// get returns a ready-to-send writeback request for (app, addr).
func (p *wbPool) get(app int, addr uint64) *mem.Request {
	var w *wbReq
	if n := len(p.free); n > 0 {
		w = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		w = &wbReq{}
		w.req.Write = true
		w.req.Done = func(int64) { p.free = append(p.free, w) }
	}
	w.req.App = app
	w.req.Addr = addr
	w.req.Origin = mem.Origin{Kind: mem.OriginCacheWB, Comp: p.comp}
	return &w.req
}
