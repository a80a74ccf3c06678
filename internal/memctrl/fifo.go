package memctrl

// fifo is a slice-backed FIFO of queue entries with amortized O(1)
// push/pop. Entries keep arrival order within an application, which every
// scheduling policy in this package relies on (service within an app is
// always oldest-first).
type fifo struct {
	items []*Entry
	head  int
}

func (f *fifo) len() int { return len(f.items) - f.head }

func (f *fifo) push(e *Entry) { f.items = append(f.items, e) }

// peek returns the oldest entry without removing it, or nil when empty.
func (f *fifo) peek() *Entry {
	if f.len() == 0 {
		return nil
	}
	return f.items[f.head]
}

// pop removes and returns the oldest entry, or nil when empty.
func (f *fifo) pop() *Entry {
	if f.len() == 0 {
		return nil
	}
	e := f.items[f.head]
	f.items[f.head] = nil // allow GC
	f.head++
	// Compact once the dead prefix dominates, keeping memory bounded.
	if f.head > 64 && f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		f.items = f.items[:n]
		f.head = 0
	}
	return e
}

// at returns the i-th oldest entry (0 = head). Callers must check bounds
// with len().
func (f *fifo) at(i int) *Entry { return f.items[f.head+i] }
