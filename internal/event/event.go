// Package event provides a small deterministic event queue keyed by cycle
// number. Simulator components use it to schedule work (cache hit fills,
// DRAM completions) at a future cycle without each component reimplementing
// a heap. Events scheduled for the same cycle run in FIFO order, which keeps
// simulations reproducible.
package event

// item is a scheduled callback. seq breaks ties between events scheduled for
// the same cycle so execution order is insertion order.
type item struct {
	cycle int64
	seq   uint64
	fn    func()
}

// Before orders items by (cycle, seq); the seq tiebreak makes the order a
// strict total order, so pop order is independent of heap internals.
func (a item) Before(b item) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// Queue is a deterministic future-event list. The zero value is ready to
// use. Scheduling and dispatch are allocation-free in steady state: the
// inline generic heap moves items by value instead of boxing each one
// through container/heap's interface{}.
type Queue struct {
	h   Heap[item]
	seq uint64
}

// At schedules fn to run when RunUntil reaches cycle. Scheduling in the past
// is allowed; the event fires on the next RunUntil call.
func (q *Queue) At(cycle int64, fn func()) {
	q.seq++
	q.h.Push(item{cycle: cycle, seq: q.seq, fn: fn})
}

// RunUntil executes, in order, every event scheduled at or before cycle.
// Events may schedule further events; those are honored if they also fall at
// or before cycle.
func (q *Queue) RunUntil(cycle int64) {
	for len(q.h) > 0 && q.h[0].cycle <= cycle {
		q.h.Pop().fn()
	}
}
