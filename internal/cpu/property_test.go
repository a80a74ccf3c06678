package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randStream emits a random but deterministic mix of memory and non-memory
// instructions.
type randStream struct {
	rng      *rand.Rand
	memProb  float64
	coldProb float64
}

func (s *randStream) Next() Instr {
	if s.rng.Float64() >= s.memProb {
		return Instr{}
	}
	return Instr{
		Mem:   true,
		Cold:  s.rng.Float64() < s.coldProb,
		Write: s.rng.Intn(4) == 0,
		Addr:  uint64(s.rng.Intn(1<<24)) * 64,
	}
}

// TestIPCNeverExceedsBounds: measured IPC can never exceed min(Width,
// BaseIPC) regardless of stream shape or memory latency.
func TestIPCNeverExceedsBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Width:               1 + rng.Intn(8),
			ROBSize:             8 + rng.Intn(256),
			BaseIPC:             0.1 + rng.Float64()*8,
			MaxOutstandingLoads: 1 + rng.Intn(8),
		}
		l1 := &stubL1{latency: int64(1 + rng.Intn(300))}
		stream := &randStream{rng: rng, memProb: rng.Float64() * 0.5, coldProb: rng.Float64()}
		c, err := New(cfg, 0, l1, stream)
		if err != nil {
			return false
		}
		for cyc := int64(0); cyc < 20_000; cyc++ {
			l1.tick(cyc)
			c.Tick(cyc)
		}
		bound := cfg.BaseIPC
		if w := float64(cfg.Width); w < bound {
			bound = w
		}
		return c.Stats().IPC() <= bound*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestROBOccupancyBounded: the ROB never exceeds its configured size and
// outstanding cold loads never exceed the MLP bound.
func TestROBOccupancyBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Width:               8,
			ROBSize:             16 + rng.Intn(64),
			BaseIPC:             4,
			MaxOutstandingLoads: 1 + rng.Intn(4),
		}
		l1 := &stubL1{latency: int64(100 + rng.Intn(400))}
		stream := &randStream{rng: rng, memProb: 0.4, coldProb: 0.5}
		c, err := New(cfg, 0, l1, stream)
		if err != nil {
			return false
		}
		for cyc := int64(0); cyc < 10_000; cyc++ {
			l1.tick(cyc)
			c.Tick(cyc)
			if c.robCount > cfg.ROBSize {
				return false
			}
			if c.outstandingLoads > cfg.MaxOutstandingLoads {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// dynStream wraps randStream with phase-dependent parameters.
type dynStream struct {
	randStream
	baseIPC float64
	mlp     int
}

func (d *dynStream) CoreParams() (float64, int) { return d.baseIPC, d.mlp }

func TestDynamicStreamParamsApplied(t *testing.T) {
	l1 := &stubL1{latency: 1}
	ds := &dynStream{
		randStream: randStream{rng: rand.New(rand.NewSource(1)), memProb: 0},
		baseIPC:    0.5,
		mlp:        2,
	}
	cfg := DefaultConfig()
	cfg.BaseIPC = 4 // will be overridden by the stream after refresh
	c, err := New(cfg, 0, l1, ds)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := int64(0); cyc < 40_000; cyc++ {
		l1.tick(cyc)
		c.Tick(cyc)
	}
	// The stream's 0.5 ceiling must dominate (allowing the brief pre-
	// refresh window at 4.0).
	if got := c.Stats().IPC(); got > 0.7 {
		t.Fatalf("dynamic BaseIPC not applied: IPC %v", got)
	}
	// Switch the phase: the core must speed up.
	ds.baseIPC = 3.0
	before := c.Stats()
	for cyc := int64(40_000); cyc < 80_000; cyc++ {
		l1.tick(cyc)
		c.Tick(cyc)
	}
	if got := c.Stats().Sub(before).IPC(); got < 2.5 {
		t.Fatalf("dynamic BaseIPC not refreshed upward: IPC %v", got)
	}
}
