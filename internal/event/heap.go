package event

// Ordered is the constraint for Heap elements: a strict-weak Before
// defining the heap order.
type Ordered[T any] interface {
	Before(T) bool
}

// Heap is an inline array-backed binary min-heap. Unlike container/heap it
// is generic over the element type, so push and pop move concrete values
// without boxing them into interface{} — no allocation beyond the backing
// array's amortized growth. Queue is built on it; components with typed
// events (cache callbacks, memory-controller completions) build their own
// queues on it to keep closure-free hot paths.
type Heap[T Ordered[T]] []T

// Push appends v and restores the heap invariant.
func (h *Heap[T]) Push(v T) {
	*h = append(*h, v)
	h.siftUp(len(*h) - 1)
}

// Pop removes and returns the minimum element. The vacated tail slot is
// zeroed so popped elements (and anything they reference, e.g. closures)
// become collectable.
func (h *Heap[T]) Pop() T {
	old := *h
	n := len(old) - 1
	v := old[0]
	old[0] = old[n]
	var zero T
	old[n] = zero
	*h = old[:n]
	h.siftDown(0)
	return v
}

func (h Heap[T]) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].Before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h Heap[T]) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].Before(h[l]) {
			m = r
		}
		if !h[m].Before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
