package dram

import "fmt"

// bankState tracks one DRAM bank.
type bankState struct {
	readyAt   int64 // earliest cycle the bank can begin new work
	openRow   int   // row left open (OpenPage only); -1 when precharged
	lastApp   int   // app of the most recent access (for interference attribution)
	activates int64
	rowHits   int64
}

// busState tracks one channel's shared data bus.
type busState struct {
	freeAt     int64 // earliest cycle a new burst may start
	lastApp    int   // app of the most recently granted burst
	busyCycles int64
}

// Device is the DRAM system: banks plus per-channel data buses. It is not
// safe for concurrent use; the memory controller drives it from a single
// simulation goroutine.
type Device struct {
	cfg   Config
	t     Timing
	banks []bankState
	buses []busState

	servedReads  int64
	servedWrites int64
}

// NewDevice validates cfg and builds the device.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:   cfg,
		t:     cfg.Timing(),
		banks: make([]bankState, cfg.NumBanks()),
		buses: make([]busState, cfg.Channels),
	}
	for i := range d.banks {
		d.banks[i].openRow = -1
		d.banks[i].lastApp = -1
	}
	for i := range d.buses {
		d.buses[i].lastApp = -1
	}
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Timing returns the derived CPU-cycle timing.
func (d *Device) Timing() Timing { return d.t }

// refreshDelay pushes start out of any refresh window of the rank owning
// coord. Refresh windows for every rank are [k*TREFI, k*TREFI+TRFC), offset
// per rank to stagger refreshes as real controllers do.
func (d *Device) refreshDelay(co Coord, start int64) int64 {
	if d.t.TRFC == 0 || d.t.TREFI == 0 {
		return start
	}
	offset := int64(co.Rank) * d.t.TREFI / int64(maxInt(d.cfg.Ranks, 1))
	rel := start - offset
	if rel < 0 {
		return start
	}
	within := rel % d.t.TREFI
	if within < d.t.TRFC {
		return start + (d.t.TRFC - within)
	}
	return start
}

// MinLatency is the fewest cycles from an Issue to the completion cycle it
// returns: a column access to an open row on a free bus outside refresh,
// plus the activate close-page always pays. An Issue at cycle t never
// completes before t+MinLatency.
func (d *Device) MinLatency() int64 {
	lat := d.t.CL + d.t.Burst
	if d.cfg.Policy == ClosePage {
		lat += d.t.TRCD
	}
	return lat
}

// RowHit reports whether an access to co would hit the currently open row
// (always false under close-page policy).
func (d *Device) RowHit(co Coord) bool {
	if d.cfg.Policy != OpenPage {
		return false
	}
	return d.banks[d.cfg.GlobalBank(co)].openRow == co.Row
}

// BankReady reports whether the bank owning co can begin new work at cycle
// now.
func (d *Device) BankReady(co Coord, now int64) bool {
	return d.banks[d.cfg.GlobalBank(co)].readyAt <= now
}

// BankReadyAtIndex returns the earliest cycle the bank with the given dense
// index (Config.GlobalBank order) can begin new work. The controller caches
// the index at enqueue, probes readiness through it, and sleeps until a
// blocked candidate could issue instead of probing cycle by cycle.
func (d *Device) BankReadyAtIndex(bank int) int64 { return d.banks[bank].readyAt }

// Blocker describes which resource is delaying an access and who holds it.
// Used by the controller's interference detector (paper Sec. IV-C).
type Blocker struct {
	Blocked bool // some resource prevents immediate service
	App     int  // app currently holding the blocking resource (-1 unknown)
}

// ContentionAt reports whether an access by app to the bank with the given
// dense index (Config.GlobalBank order) on channel would be delayed at cycle
// now by bank or bus occupancy, and which app holds the blocking resource.
// Bank occupancy is checked first (it gates issue); otherwise a backlogged
// data bus counts. The controller's per-cycle interference detector calls it
// with the bank index cached at enqueue.
func (d *Device) ContentionAt(bank, channel, app int, now int64) Blocker {
	b := &d.banks[bank]
	if b.readyAt > now {
		return Blocker{Blocked: true, App: b.lastApp}
	}
	bus := &d.buses[channel]
	if bus.freeAt > now {
		return Blocker{Blocked: true, App: bus.lastApp}
	}
	return Blocker{App: -1}
}

// ContentionCycles integrates Contention over the half-open cycle span
// [from, to) under the assumption that no access is issued within the span
// (bank and bus state frozen): it returns how many of those cycles an
// access to co by app would have been reported blocked by another
// application. This is the closed form of calling Contention once per cycle
// — a cycle is bank-blocked while before the bank's ready cycle, and
// bus-blocked while the bank is ready but the bus backlog has not drained —
// used by the cycle-skipping kernel to keep the paper's Eq. 13 interference
// counter bit-identical across skipped spans.
func (d *Device) ContentionCycles(co Coord, app int, from, to int64) int64 {
	var n int64
	b := &d.banks[d.cfg.GlobalBank(co)]
	if b.lastApp >= 0 && b.lastApp != app {
		if end := min(to, b.readyAt); end > from {
			n += end - from
		}
	}
	bus := &d.buses[co.Channel]
	if bus.lastApp >= 0 && bus.lastApp != app {
		start := max(from, b.readyAt)
		if end := min(to, bus.freeAt); end > start {
			n += end - start
		}
	}
	return n
}

// Issue starts an access to co on behalf of app no earlier than cycle now,
// honoring bank timing, the row policy, refresh windows, and data bus
// occupancy. It returns the cycle at which the last data beat has
// transferred (the completion cycle for a read). The caller is responsible
// for only issuing when BankReady; issuing against a busy bank is an error
// in the controller and panics to surface the scheduling bug.
func (d *Device) Issue(now int64, co Coord, app int, write bool) int64 {
	bank := &d.banks[d.cfg.GlobalBank(co)]
	bus := &d.buses[co.Channel]
	if bank.readyAt > now {
		panic(fmt.Sprintf("dram: issue to busy bank %d at cycle %d (ready %d)", d.cfg.GlobalBank(co), now, bank.readyAt))
	}

	start := d.refreshDelay(co, now)
	var rowReady int64
	switch d.cfg.Policy {
	case ClosePage:
		// Bank is always precharged: activate then column access.
		rowReady = start + d.t.TRCD
		bank.activates++
	case OpenPage:
		switch bank.openRow {
		case co.Row:
			rowReady = start // row already open
			bank.rowHits++
		case -1:
			rowReady = start + d.t.TRCD
			bank.activates++
		default:
			// Row conflict: precharge the open row, then activate.
			rowReady = start + d.t.TRP + d.t.TRCD
			bank.activates++
		}
	}

	dataStart := rowReady + d.t.CL
	if bus.freeAt > dataStart {
		dataStart = bus.freeAt
	}
	complete := dataStart + d.t.Burst

	bus.freeAt = complete
	bus.lastApp = app
	bus.busyCycles += d.t.Burst

	switch d.cfg.Policy {
	case ClosePage:
		// Auto-precharge after the burst.
		bank.readyAt = complete + d.t.TRP
		bank.openRow = -1
	case OpenPage:
		bank.readyAt = complete
		bank.openRow = co.Row
	}
	bank.lastApp = app

	if write {
		d.servedWrites++
	} else {
		d.servedReads++
	}
	return complete
}

// Stats is a snapshot of device-level counters.
type Stats struct {
	ServedReads   int64
	ServedWrites  int64
	BusBusyCycles int64 // summed over channels
	Activates     int64
	RowHits       int64
}

// Sub returns the counts accumulated from the earlier reading o to s.
func (s Stats) Sub(o Stats) Stats {
	return Stats{s.ServedReads - o.ServedReads, s.ServedWrites - o.ServedWrites, s.BusBusyCycles - o.BusBusyCycles,
		s.Activates - o.Activates, s.RowHits - o.RowHits}
}

// Stats returns accumulated counters.
func (d *Device) Stats() Stats {
	s := Stats{ServedReads: d.servedReads, ServedWrites: d.servedWrites}
	for i := range d.buses {
		s.BusBusyCycles += d.buses[i].busyCycles
	}
	for i := range d.banks {
		s.Activates += d.banks[i].activates
		s.RowHits += d.banks[i].rowHits
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
