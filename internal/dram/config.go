// Package dram models a DDR2-style DRAM subsystem at the granularity the
// bandwidth-partitioning study needs: per-bank state machines with
// tRP/tRCD/CL timing, close-page or open-page row policy, a shared data bus
// that enforces the device's peak bandwidth, per-rank refresh windows, and a
// channel/row/col/bank/rank address mapping. It is the stand-in for
// DRAMSim2 in the paper's GEM5+DRAMSim2 testbed.
//
// All externally visible times are in CPU cycles so the rest of the
// simulator never converts clock domains.
package dram

import (
	"errors"
	"fmt"
	"math"
)

// PagePolicy selects what happens to a DRAM row after an access.
type PagePolicy int

const (
	// ClosePage auto-precharges the row after every access (the paper's
	// baseline configuration, Table II).
	ClosePage PagePolicy = iota
	// OpenPage leaves the row open so subsequent accesses to the same row
	// skip the activate (enables FR-FCFS row-hit-first scheduling).
	OpenPage
)

func (p PagePolicy) String() string {
	switch p {
	case ClosePage:
		return "close-page"
	case OpenPage:
		return "open-page"
	default:
		return fmt.Sprintf("PagePolicy(%d)", int(p))
	}
}

// AddressMap selects how line addresses interleave across the DRAM
// geometry.
type AddressMap int

const (
	// MapBankInterleaved is the paper's channel/row/col/bank/rank order
	// (most- to least-significant): consecutive lines spread across ranks
	// and banks first, maximizing bank-level parallelism for streams.
	MapBankInterleaved AddressMap = iota
	// MapRowInterleaved places the column bits least significant:
	// consecutive lines fill a DRAM row before moving to the next bank —
	// maximal row-buffer locality under open-page, minimal bank-level
	// parallelism.
	MapRowInterleaved
)

func (m AddressMap) String() string {
	switch m {
	case MapBankInterleaved:
		return "bank-interleaved"
	case MapRowInterleaved:
		return "row-interleaved"
	default:
		return fmt.Sprintf("AddressMap(%d)", int(m))
	}
}

// Config describes the DRAM geometry and timing. Times are in nanoseconds;
// the CPU frequency converts them to CPU cycles.
type Config struct {
	CPUGHz    float64 // CPU core clock, e.g. 5.0
	BusMHz    float64 // DRAM bus clock, e.g. 200 for DDR2-400 (DDR: 2 transfers/cycle)
	BusBytes  int     // data bus width in bytes, e.g. 8
	LineBytes int     // cache line (= DRAM burst) size in bytes, e.g. 64

	Channels     int // independent channels, each with its own data bus
	Ranks        int // ranks per channel
	BanksPerRank int // banks per rank
	RowBytes     int // bytes per row per bank (row buffer size), e.g. 8192

	TRPns   float64 // row precharge
	TRCDns  float64 // row activate to column command
	CLns    float64 // column command to first data
	TRFCns  float64 // refresh cycle time (0 disables refresh)
	TREFIns float64 // average refresh interval (per rank)

	Policy PagePolicy
	// Mapping selects the address interleaving (default: the paper's
	// bank-interleaved channel/row/col/bank/rank order).
	Mapping AddressMap
}

// DDR2_400 returns the paper's baseline memory system (Table II): 200 MHz
// bus, 8-byte bus, 64 B lines, close page, 12.5-12.5-12.5 ns tRP-tRCD-CL,
// 32 banks (1 channel x 4 ranks x 8 banks), 5 GHz CPU.
func DDR2_400() Config {
	return Config{
		CPUGHz:       5.0,
		BusMHz:       200,
		BusBytes:     8,
		LineBytes:    64,
		Channels:     1,
		Ranks:        4,
		BanksPerRank: 8,
		RowBytes:     8192,
		TRPns:        12.5,
		TRCDns:       12.5,
		CLns:         12.5,
		TRFCns:       127.5,
		TREFIns:      7800,
		Policy:       ClosePage,
	}
}

// DDR3_1600 returns a DDR3-1600-class memory system (one channel,
// 12.8 GB/s, 11-11-11 timing at 800 MHz bus): a modern-for-the-era
// alternative to the paper's DDR2-400 baseline, useful for sensitivity
// studies.
func DDR3_1600() Config {
	return Config{
		CPUGHz:       5.0,
		BusMHz:       800,
		BusBytes:     8,
		LineBytes:    64,
		Channels:     1,
		Ranks:        4,
		BanksPerRank: 8,
		RowBytes:     8192,
		TRPns:        13.75,
		TRCDns:       13.75,
		CLns:         13.75,
		TRFCns:       160,
		TREFIns:      7800,
		Policy:       ClosePage,
	}
}

// ScaleBandwidth returns a copy of c with the bus frequency multiplied by
// factor. The paper's scalability study (Figure 4) scales bandwidth by
// raising only the bus frequency while keeping tRP-tRCD-CL fixed in
// nanoseconds; this helper reproduces exactly that.
func (c Config) ScaleBandwidth(factor float64) Config {
	c.BusMHz *= factor
	return c
}

// ScaleChannels returns a copy of c with factor times the channels — the
// alternative way to scale bandwidth (more parallel buses at the same
// per-burst occupancy rather than faster bursts).
func (c Config) ScaleChannels(factor int) Config {
	c.Channels *= factor
	return c
}

// Validate checks the configuration for internal consistency. NaN fails
// every comparison, so the clock and timing checks are written to reject it.
func (c Config) Validate() error {
	switch {
	case !(c.CPUGHz > 0) || math.IsInf(c.CPUGHz, 1):
		return errors.New("dram: CPUGHz must be positive and finite")
	case !(c.BusMHz > 0) || math.IsInf(c.BusMHz, 1):
		return errors.New("dram: BusMHz must be positive and finite")
	case c.BusBytes <= 0:
		return errors.New("dram: BusBytes must be positive")
	case c.LineBytes <= 0 || c.LineBytes%c.BusBytes != 0:
		return errors.New("dram: LineBytes must be a positive multiple of BusBytes")
	case c.Channels <= 0 || c.Ranks <= 0 || c.BanksPerRank <= 0:
		return errors.New("dram: geometry counts must be positive")
	case c.RowBytes < c.LineBytes:
		return errors.New("dram: RowBytes must be at least LineBytes")
	case c.RowBytes%c.LineBytes != 0:
		return errors.New("dram: RowBytes must be a multiple of LineBytes")
	case !finiteNonNegative(c.TRPns, c.TRCDns, c.CLns, c.TRFCns, c.TREFIns):
		return errors.New("dram: timing parameters must be finite and non-negative")
	case c.TRFCns > 0 && c.TREFIns <= c.TRFCns:
		return errors.New("dram: TREFIns must exceed TRFCns when refresh is enabled")
	case math.IsInf(c.PeakBandwidthGBs(), 1):
		return errors.New("dram: peak bandwidth must be finite")
	}
	for _, ns := range c.timingNs() {
		if !(ns*c.cyclesPerNs() <= MaxTimingCycles) {
			return fmt.Errorf("dram: a timing of %g ns is over %d CPU cycles", ns, int64(MaxTimingCycles))
		}
	}
	return nil
}

// MaxTimingCycles bounds every Timing field Validate accepts, so that a cycle
// count plus a latency cannot wrap int64 (2^40 cycles is over three minutes
// of simulated time at 5 GHz).
const MaxTimingCycles = 1 << 40

// finiteNonNegative reports whether every v is a finite number >= 0.
func finiteNonNegative(vs ...float64) bool {
	for _, v := range vs {
		if !(v >= 0) || math.IsInf(v, 1) {
			return false
		}
	}
	return true
}

// Timing is the device timing converted into CPU cycles.
type Timing struct {
	TRP   int64 // precharge
	TRCD  int64 // activate to column command
	CL    int64 // column command to first data beat
	Burst int64 // data bus occupancy of one full line transfer
	TRFC  int64 // refresh busy time (0 = refresh disabled)
	TREFI int64 // refresh interval
}

// cyclesPerNs returns CPU cycles per nanosecond.
func (c Config) cyclesPerNs() float64 { return c.CPUGHz }

// Timing derives CPU-cycle timing from the nanosecond configuration. The
// burst time follows from the line size and the DDR data rate:
// beats = LineBytes/BusBytes, two beats per bus cycle.
func (c Config) Timing() Timing {
	var cy [6]int64
	for i, ns := range c.timingNs() {
		cy[i] = int64(math.Ceil(ns * c.cyclesPerNs()))
	}
	return Timing{TRP: cy[0], TRCD: cy[1], CL: cy[2], Burst: cy[3], TRFC: cy[4], TREFI: cy[5]}
}

// timingNs lists the Timing fields, in field order, in nanoseconds.
func (c Config) timingNs() [6]float64 {
	beats := float64(c.LineBytes / c.BusBytes)
	busCycles := beats / 2 // DDR: two transfers per bus clock
	burstNs := busCycles / c.BusMHz * 1e3
	return [6]float64{c.TRPns, c.TRCDns, c.CLns, burstNs, c.TRFCns, c.TREFIns}
}

// PeakBandwidthGBs returns the aggregate peak data bandwidth in GB/s
// (all channels).
func (c Config) PeakBandwidthGBs() float64 {
	return float64(c.Channels) * float64(c.BusBytes) * 2 * c.BusMHz * 1e6 / 1e9
}

// PeakAPC returns the peak sustainable memory accesses per CPU cycle, i.e.
// the bandwidth cap B of the analytical model expressed in the paper's APC
// unit (GB/s = APC x LineBytes x CPUFreq).
func (c Config) PeakAPC() float64 {
	return c.PeakBandwidthGBs() * 1e9 / (float64(c.LineBytes) * c.CPUGHz * 1e9)
}

// NumBanks returns the total number of banks across all channels and ranks.
func (c Config) NumBanks() int { return c.Channels * c.Ranks * c.BanksPerRank }

// Coord locates one line within the DRAM system.
type Coord struct {
	Channel int
	Rank    int
	Bank    int
	Row     int
	Col     int // line-sized column within the row
}

// GlobalBank returns a dense index over all banks, usable as a slice index.
func (c Config) GlobalBank(co Coord) int {
	return (co.Channel*c.Ranks+co.Rank)*c.BanksPerRank + co.Bank
}

// Decode maps a byte address to a DRAM coordinate according to the
// configured interleaving, applied to the line address. Channels always
// interleave at line granularity (the least-significant field) so that
// multi-channel configurations spread any stream across all buses; with
// the paper's single channel the field vanishes and the order matches its
// channel/row/col/bank/rank mapping. Row bits are bounded to 2^20 rows to
// keep rows plausible without mandating a device capacity.
func (c Config) Decode(addr uint64) Coord {
	line := addr / uint64(c.LineBytes)
	colsPerRow := uint64(c.RowBytes / c.LineBytes)

	var rank, bank, col, row, channel int
	channel = int(line % uint64(c.Channels))
	line /= uint64(c.Channels)
	switch c.Mapping {
	case MapRowInterleaved:
		// row/rank/bank/col above the channel bits.
		col = int(line % colsPerRow)
		line /= colsPerRow
		bank = int(line % uint64(c.BanksPerRank))
		line /= uint64(c.BanksPerRank)
		rank = int(line % uint64(c.Ranks))
		line /= uint64(c.Ranks)
		row = int(line % (1 << 20))
	default: // MapBankInterleaved: row/col/bank/rank above the channel bits.
		rank = int(line % uint64(c.Ranks))
		line /= uint64(c.Ranks)
		bank = int(line % uint64(c.BanksPerRank))
		line /= uint64(c.BanksPerRank)
		col = int(line % colsPerRow)
		line /= colsPerRow
		row = int(line % (1 << 20))
	}
	return Coord{Channel: channel, Rank: rank, Bank: bank, Row: row, Col: col}
}
