package memctrl

import (
	"errors"

	"bwpart/internal/dram"
)

// WriteDrain wraps any scheduler with a read-priority write-buffering
// policy, the mechanism behind Virtual Write Queue (Stuecheli et al.,
// ISCA'10, cited by the paper): posted writes are held while reads are
// pending and drained in batches once the write backlog crosses a high
// watermark (or nothing else is ready), amortizing bus turnaround.
//
// The wrapped scheduler keeps making the *inter-application* choice; the
// wrapper only decides when the write class gets the channel.
type WriteDrain struct {
	inner Scheduler
	// HighWatermark starts a drain burst when at least this many writes
	// are queued; DrainTo stops the burst at this backlog.
	HighWatermark int
	DrainTo       int
	draining      bool
}

// NewWriteDrain wraps inner with write buffering. highWatermark must
// exceed drainTo (both non-negative).
func NewWriteDrain(inner Scheduler, highWatermark, drainTo int) (*WriteDrain, error) {
	if inner == nil {
		return nil, errors.New("memctrl: nil inner scheduler")
	}
	if highWatermark <= 0 || drainTo < 0 || drainTo >= highWatermark {
		return nil, errors.New("memctrl: need highWatermark > drainTo >= 0")
	}
	return &WriteDrain{inner: inner, HighWatermark: highWatermark, DrainTo: drainTo}, nil
}

func (w *WriteDrain) Name() string { return w.inner.Name() + "+write-drain" }

// HeadOnly is false whatever the inner policy: pickClass issues an app's
// oldest entry of the wanted class, which need not be its head, and the
// controller's head-only paths (the nextTry gate, earliestIssueCycle) watch
// only the heads' banks, so they would sleep through a non-head entry
// becoming issuable.
func (w *WriteDrain) HeadOnly() bool { return false }

func (w *WriteDrain) OnIssue(e *Entry) { w.inner.OnIssue(e) }

// span is idle-safe exactly when the inner policy is: the drain hysteresis
// depends only on the queued read/write counts, which are frozen across an
// idle span, so the draining flag settles to the same value whether Pick
// runs every span cycle or once at the wake cycle. A busy-safe inner policy
// gives none: WriteDrain is not head-only.
func (w *WriteDrain) span() spanClass {
	if w.inner.span() == spanIdle {
		return spanIdle
	}
	return spanNone
}

// pickClass runs the inner scheduler but only accepts entries of the
// wanted class, by scanning each app's queue for its oldest entry of that
// class that is bank-ready.
func pickClass(c *Controller, dev *dram.Device, now int64, write bool) Pick {
	var best Pick
	for a := range c.queues {
		q := &c.queues[a]
		n := q.len()
		for i := 0; i < n; i++ {
			e := q.at(i)
			if e.Req.Write != write {
				continue
			}
			if !bankReady(dev, e, now) {
				break // within an app, keep order per class conservatively
			}
			if best.Entry == nil || e.seq < best.Entry.seq {
				best = Pick{Entry: e, Depth: i}
			}
			break // only the app's oldest entry of this class
		}
	}
	return best
}

func (w *WriteDrain) Pick(now int64, c *Controller, dev *dram.Device) Pick {
	writes := c.queuedWrites
	reads := c.queued - writes
	if w.draining && writes <= w.DrainTo {
		w.draining = false
	}
	if !w.draining && writes >= w.HighWatermark {
		w.draining = true
	}
	if w.draining || reads == 0 {
		if p := pickClass(c, dev, now, true); p.Entry != nil {
			return p
		}
		// No write issuable: fall through to reads (work conservation).
	}
	// Read phase: prefer the inner policy's choice among reads.
	if p := w.innerReadPick(now, c, dev); p.Entry != nil {
		return p
	}
	// No read issuable either: try writes regardless of watermark.
	return pickClass(c, dev, now, true)
}

// innerReadPick asks the inner scheduler for a pick and accepts it only if
// it is a read; otherwise it falls back to the oldest issuable read.
func (w *WriteDrain) innerReadPick(now int64, c *Controller, dev *dram.Device) Pick {
	p := w.inner.Pick(now, c, dev)
	if p.Entry != nil && !p.Entry.Req.Write {
		return p
	}
	return pickClass(c, dev, now, false)
}
