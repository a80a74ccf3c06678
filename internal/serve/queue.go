package serve

import (
	"slices"
	"sync"
)

// fairQueue is the admission-controlled job queue: depth-bounded (push
// refuses past the bound — the caller turns that into 429 + Retry-After)
// and client-fair (pop serves client IDs round-robin, so one client
// flooding the queue cannot starve another's single request; within one
// client, jobs stay FIFO).
type fairQueue struct {
	mu        sync.Mutex
	cond      *sync.Cond
	max       int // bound on queued (not yet dispatched) jobs
	depth     int
	order     []string          // round-robin ring of clients with queued jobs
	rr        int               // next ring slot to serve
	perClient map[string][]*job // FIFO per client
	closed    bool
}

func newFairQueue(maxDepth int) *fairQueue {
	q := &fairQueue{max: maxDepth, perClient: make(map[string][]*job)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job, refusing when the queue is full or closed.
func (q *fairQueue) push(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.depth >= q.max {
		return false
	}
	if _, ok := q.perClient[j.client]; !ok {
		q.order = append(q.order, j.client)
	}
	q.perClient[j.client] = append(q.perClient[j.client], j)
	q.depth++
	q.cond.Signal()
	return true
}

// pop blocks until a job is available, serving clients round-robin. After
// close, remaining jobs still drain; pop returns false only when the queue
// is closed AND empty — that is the drain guarantee: every accepted job is
// handed to a worker.
func (q *fairQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.depth == 0 {
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
	if q.rr >= len(q.order) {
		q.rr = 0
	}
	client := q.order[q.rr]
	list := q.perClient[client]
	j := list[0]
	if len(list) == 1 {
		delete(q.perClient, client)
		q.order = append(q.order[:q.rr], q.order[q.rr+1:]...)
		// rr now points at the next client already; wrap handled above.
	} else {
		q.perClient[client] = list[1:]
		q.rr++
	}
	q.depth--
	return j, true
}

// remove pulls a still-queued job out (cancellation); reports whether the
// job was found (false means a worker already took it).
func (q *fairQueue) remove(target *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	list := q.perClient[target.client]
	i := slices.Index(list, target)
	if i < 0 {
		return false
	}
	q.depth--
	if list = slices.Delete(list, i, i+1); len(list) > 0 {
		q.perClient[target.client] = list
		return true
	}
	delete(q.perClient, target.client)
	k := slices.Index(q.order, target.client)
	q.order = slices.Delete(q.order, k, k+1)
	if q.rr > k {
		q.rr--
	}
	return true
}

// close stops admission. Queued jobs still drain through pop; workers exit
// once the queue is empty.
func (q *fairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// size reports the current queued (undispatched) depth.
func (q *fairQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}
