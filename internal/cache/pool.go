package cache

import (
	"bwpart/internal/event"
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
// re-links the event to the restored request object. Before orders by
// (cycle, seq) — the same strict total order as the closure-based event
// queue this replaces, so dispatch order is bit-identical.
type cev struct {
	cycle int64
	seq   uint64
	req   *mem.Request
	send  bool
}

func (a cev) Before(b cev) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// cacheEvents is a typed deterministic future-event list for cache actions.
type cacheEvents struct {
	h   event.Heap[cev]
	seq uint64
}

// scheduleDone schedules req.Done(cycle) at cycle (hit callbacks). The
// request must have a completion callback; callers guard.
func (q *cacheEvents) scheduleDone(cycle int64, req *mem.Request) {
	q.seq++
	q.h.Push(cev{cycle: cycle, seq: q.seq, req: req})
}

// scheduleSend schedules req to be sent to the lower level at cycle.
func (q *cacheEvents) scheduleSend(cycle int64, req *mem.Request) {
	q.seq++
	q.h.Push(cev{cycle: cycle, seq: q.seq, req: req, send: true})
}

// next returns the earliest pending cycle and whether one exists.
func (q *cacheEvents) next() (int64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].cycle, true
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
