package exper

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"strconv"
	"strings"

	"bwpart/internal/cache"
	"bwpart/internal/workload"
)

// The configuration fingerprint identifies the equivalence class of runs
// that produce bit-identical cells: two runners with equal fingerprints may
// share cached results (in memory or on disk). The encoding is canonical —
// every field is written as an explicit (label, value) pair with fixed-width
// binary values — so it cannot drift with fmt's struct formatting, float
// rendering, or map iteration order the way the old %+v-based key could.
// FingerprintVersion is folded in (and stamped into checkpoint file names)
// so any change to the encoding or to the simulator's result semantics
// invalidates old checkpoints as ordinary cache misses.

// FingerprintVersion tags the canonical cell encoding. Bump it whenever the
// fingerprint encoding or the meaning of a recorded cell changes. Version 3:
// STFM's and TCM's counter baselines no longer go backwards when the
// measurement window starts.
const FingerprintVersion = 3

// fpHasher streams labeled fields into a SHA-256 state.
type fpHasher struct {
	h   hash.Hash
	buf [8]byte
}

func newFPHasher() *fpHasher { return &fpHasher{h: sha256.New()} }

// label writes a field tag. Tags are length-prefixed like every other
// byte string, so no field boundary is ambiguous.
func (f *fpHasher) label(tag string) { f.bytes([]byte(tag)) }

func (f *fpHasher) bytes(b []byte) {
	binary.BigEndian.PutUint64(f.buf[:], uint64(len(b)))
	f.h.Write(f.buf[:])
	f.h.Write(b)
}

func (f *fpHasher) u64(tag string, v uint64) {
	f.label(tag)
	binary.BigEndian.PutUint64(f.buf[:], v)
	f.h.Write(f.buf[:])
}

func (f *fpHasher) i64(tag string, v int64) { f.u64(tag, uint64(v)) }
func (f *fpHasher) int(tag string, v int)   { f.u64(tag, uint64(int64(v))) }

// f64 encodes the exact bit pattern, so -0.0, NaN payloads, and values that
// round-trip badly through decimal formatting all stay distinguishable.
func (f *fpHasher) f64(tag string, v float64) { f.u64(tag, math.Float64bits(v)) }

func (f *fpHasher) str(tag, s string) {
	f.label(tag)
	f.bytes([]byte(s))
}

func (f *fpHasher) ints(tag string, vs []int) {
	f.label(tag)
	f.u64("len", uint64(len(vs)))
	for _, v := range vs {
		binary.BigEndian.PutUint64(f.buf[:], uint64(int64(v)))
		f.h.Write(f.buf[:])
	}
}

func (f *fpHasher) bool(tag string, v bool) {
	b := uint64(0)
	if v {
		b = 1
	}
	f.u64(tag, b)
}

func (f *fpHasher) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

// configFingerprint folds every configuration knob that influences a cell's
// measurement into one canonical digest. Two runners with equal fingerprints
// produce bit-identical cells, so a cached cell is reusable exactly when the
// fingerprints match.
func configFingerprint(c Config) string {
	f := newFPHasher()
	f.u64("version", FingerprintVersion)

	d := c.Sim.DRAM
	f.f64("dram.cpughz", d.CPUGHz)
	f.f64("dram.busmhz", d.BusMHz)
	f.int("dram.busbytes", d.BusBytes)
	f.int("dram.linebytes", d.LineBytes)
	f.int("dram.channels", d.Channels)
	f.int("dram.ranks", d.Ranks)
	f.int("dram.banksperrank", d.BanksPerRank)
	f.int("dram.rowbytes", d.RowBytes)
	f.f64("dram.trp", d.TRPns)
	f.f64("dram.trcd", d.TRCDns)
	f.f64("dram.cl", d.CLns)
	f.f64("dram.trfc", d.TRFCns)
	f.f64("dram.trefi", d.TREFIns)
	f.int("dram.policy", int(d.Policy))
	f.int("dram.mapping", int(d.Mapping))

	for _, lvl := range []struct {
		tag string
		cc  cache.Config
	}{{"l1", c.Sim.L1}, {"l2", c.Sim.L2}} {
		f.str(lvl.tag+".name", lvl.cc.Name)
		f.int(lvl.tag+".size", lvl.cc.SizeBytes)
		f.int(lvl.tag+".ways", lvl.cc.Ways)
		f.int(lvl.tag+".linebytes", lvl.cc.LineBytes)
		f.i64(lvl.tag+".hitlat", lvl.cc.HitLatency)
		f.int(lvl.tag+".mshrs", lvl.cc.MSHRs)
		f.int(lvl.tag+".pfdepth", lvl.cc.PrefetchDepth)
	}

	f.int("core.width", c.Sim.Core.Width)
	f.int("core.rob", c.Sim.Core.ROBSize)
	f.f64("core.baseipc", c.Sim.Core.BaseIPC)
	f.int("core.maxloads", c.Sim.Core.MaxOutstandingLoads)

	f.int("sim.queuecap", c.Sim.QueueCap)
	f.bool("sim.sharedl2", c.Sim.SharedL2)
	f.ints("sim.l2wayquota", c.Sim.L2WayQuota)
	f.int("sim.l2pfdepth", c.Sim.L2PrefetchDepth)
	f.i64("sim.warmup", c.Sim.WarmupInstructions)
	f.i64("sim.seed", c.Sim.Seed)
	if c.Sim.Power != nil {
		p := *c.Sim.Power
		f.f64("power.actpre", p.ActPreEnergyNJ)
		f.f64("power.read", p.ReadBurstNJ)
		f.f64("power.write", p.WriteBurstNJ)
		f.f64("power.refresh", p.RefreshNJ)
		f.f64("power.bgmw", p.BackgroundMWRank)
	} else {
		f.bool("power.nil", true)
	}

	f.i64("exp.profile", c.ProfileCycles)
	f.i64("exp.settle", c.SettleCycles)
	f.i64("exp.measure", c.MeasureCycles)
	f.i64("exp.seed", c.Seed)
	return f.sum()
}

// cellKey names one cell under one configuration for the in-memory result
// cache. The key is content-addressed: the mix contributes its ordered
// benchmark list, not its display name, so two differently-named mixes over
// the same applications (the motivation mix is Table IV's hetero-5) share
// one cell. The cell executor relabels returned copies with the requested
// mix's name. A share vector appends each share's exact bit pattern and an
// online cell its epoch length and count, so a plain cell keeps the key it had
// before cells could carry either.
func cellKey(fp string, c GridCell) string {
	key := fp + "/" + strings.Join(c.Mix.Benchmarks, "+") + "/" + c.Scheme
	if len(c.Shares) == 0 && c.Epoch == 0 && c.Epochs == 0 {
		return key
	}
	b := []byte(key)
	for _, s := range c.Shares {
		b = strconv.AppendUint(append(b, '/'), math.Float64bits(s), 16)
	}
	if c.Epoch != 0 || c.Epochs != 0 {
		b = strconv.AppendInt(append(b, "/epochs="...), int64(c.Epochs), 10)
		b = strconv.AppendInt(append(b, 'x'), c.Epoch, 10)
	}
	return string(b)
}

// baseKey identifies a warm base in the prepared-base registry: one per
// distinct benchmark list on each system. Content-addressed like cellKey, so
// aliased mixes warm once.
func baseKey(on *system, mix workload.Mix) string {
	return on.fp + "/" + strings.Join(mix.Benchmarks, "+")
}
