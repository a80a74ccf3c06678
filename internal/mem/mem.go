// Package mem defines the request type and port interface shared by every
// level of the memory hierarchy (L1, L2, memory controller). A component
// accepts a Request through its Port and invokes the request's Done callback
// at the cycle the data becomes available to the requester.
//
// A requester that knows how to wait on its own clock may opt a request into
// in-place completion (Request.InPlace). A port that has the data at Access
// time — a hit in a private cache — may then answer within Access: it writes
// the cycle the data becomes available into Request.Ready, schedules nothing,
// never calls Done and wakes nobody. The requester treats the access as
// completing at that cycle, exactly as if Done(Ready) had been delivered
// then. Answering in place is the port's choice: it may ignore InPlace and
// complete through Done as for any request, so an opted-in requester keeps
// its Done callback and tells the two paths apart by Ready, which it sets to
// -1 before every Access.
//
// Two requesters opt in: a core's loads, which a private L1 answers on a
// hit, and a cache's fills and writebacks, which a private L2 answers on a
// hit. The L1 completes such a fill from its own tick at Ready, so the L2
// neither schedules, wakes nor ticks for it. A shared L2 serves several L1s
// and ignores InPlace, as the memory controller does: moving each answer
// into its L1's tick would reorder the shared level's accesses.
//
// A Request is live state only: no checkpoint ever holds one. A system is
// checkpointed at its warm point, before any request exists (sim.Checkpoint),
// so a Request carries no identity beyond its payload and its Done callback.
package mem

// Request is one memory access travelling down the hierarchy. Addr is a byte
// address; components align it to their own line size. App identifies the
// originating application (core) for bandwidth accounting and partitioning.
type Request struct {
	App   int
	Addr  uint64
	Write bool
	// Done, if non-nil, is invoked exactly once when the access completes,
	// with the completion cycle, unless the port answered in place. Posted
	// writes may have a nil Done.
	Done func(cycle int64)
	// InPlace opts the request into in-place completion (see the package
	// doc); Ready is where a port that answers in place writes the cycle the
	// data becomes available. A port that does not answer in place leaves
	// Ready untouched.
	InPlace bool
	Ready   int64
}

// Port accepts memory requests. Access returns false when the component
// cannot take the request this cycle (structural hazard: MSHRs or queue
// full); the caller must retry on a later cycle.
type Port interface {
	Access(now int64, req *Request) bool
}

// RejectAccounter is the span-integration contract for rejected accesses: a
// Port additionally implementing it promises that a refused Access has no
// side effect beyond what AccountRejects(app, n) reproduces for n refusals
// (typically a per-app reject counter; possibly nothing at all). Callers
// that retry a rejected request once per cycle may then integrate a span of
// n guaranteed-failing retries in closed form instead of issuing them,
// keeping the skipped span bit-identical to per-cycle retrying. Ports whose
// refusals have richer effects must not implement it.
type RejectAccounter interface {
	AccountRejects(app int, n int64)
}

// ResidencyProber is the run-ahead contract for hits: a Port additionally
// implementing it issues an access only if it would hit right now.
// AccessResident is Access for a request whose line is resident; for any
// other request it touches no state and returns false. A hit that needs no
// callback — an InPlace load or a posted store — changes only state private
// to the port (LRU order, counters) and wakes nobody, so a requester that
// knows nothing else reaches the port before a given cycle may issue such
// hits ahead of the cycle they belong to, and stop at the first access the
// port does not take.
type ResidencyProber interface {
	AccessResident(now int64, req *Request) bool
}

// Waker is the handle a simulation kernel attaches to a component it may
// leave unticked through a skippable span. The component calls Wake on its
// own handle at the top of every entry point another component can reach
// (Access, a fill or completion callback), before touching any state, so
// the kernel can first integrate the cycles slept so far. A component whose
// state change can end another's reject-coupled stall (freeing an MSHR or a
// queue slot) additionally calls WakeUpstream. Every method is a no-op on a
// nil handle, which is how components run with no kernel attached, and a
// spurious Wake is always safe: it only trades a slept cycle for a ticked
// one.
type Waker struct {
	asleep bool
	rouse  func()
	up     []*Waker
}

// NewWaker returns an awake handle; Wake calls rouse while it is asleep.
func NewWaker(rouse func()) *Waker { return &Waker{rouse: rouse} }

// SetAsleep is the kernel's switch: true once it decides not to tick the
// component until a later cycle, false when the component is due again.
func (w *Waker) SetAsleep(asleep bool) { w.asleep = asleep }

// AddUpstream registers u as a component that sends accesses to this one,
// and so may be asleep retrying one that was refused.
func (w *Waker) AddUpstream(u *Waker) {
	if w != nil {
		w.up = append(w.up, u)
	}
}

// Wake rouses the component if it is asleep.
func (w *Waker) Wake() {
	if w != nil && w.asleep {
		w.asleep = false
		w.rouse()
	}
}

// WakeUpstream rouses every sleeping upstream component.
func (w *Waker) WakeUpstream() {
	if w != nil {
		for _, u := range w.up {
			u.Wake()
		}
	}
}
