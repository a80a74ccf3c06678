package dram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDDR2_400Derived(t *testing.T) {
	cfg := DDR2_400()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.PeakBandwidthGBs(); got != 3.2 {
		t.Fatalf("peak bandwidth = %v GB/s, want 3.2", got)
	}
	// 0.01 APC at 64B lines and 5 GHz equals 3.2 GB/s (paper Sec. III-A).
	if got := cfg.PeakAPC(); got != 0.01 {
		t.Fatalf("peak APC = %v, want 0.01", got)
	}
	if got := cfg.NumBanks(); got != 32 {
		t.Fatalf("banks = %d, want 32 (Table II)", got)
	}
	tm := cfg.Timing()
	// 12.5 ns at 5 GHz = 62.5 -> ceil 63 cycles.
	if tm.TRP != 63 || tm.TRCD != 63 || tm.CL != 63 {
		t.Fatalf("tRP/tRCD/CL = %d/%d/%d, want 63 each", tm.TRP, tm.TRCD, tm.CL)
	}
	// 64B line on an 8B DDR bus at 200 MHz: 8 beats = 4 bus cycles = 20 ns
	// = 100 CPU cycles.
	if tm.Burst != 100 {
		t.Fatalf("burst = %d cycles, want 100", tm.Burst)
	}
}

func TestScaleBandwidth(t *testing.T) {
	cfg := DDR2_400().ScaleBandwidth(2)
	if got := cfg.PeakBandwidthGBs(); got != 6.4 {
		t.Fatalf("scaled bandwidth = %v, want 6.4", got)
	}
	tm := cfg.Timing()
	if tm.Burst != 50 {
		t.Fatalf("scaled burst = %d, want 50", tm.Burst)
	}
	// Latency parameters must not change (paper Sec. VI-C).
	if tm.TRP != 63 || tm.TRCD != 63 || tm.CL != 63 {
		t.Fatalf("latency changed under scaling: %+v", tm)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.CPUGHz = 0 },
		func(c *Config) { c.BusMHz = -1 },
		func(c *Config) { c.BusBytes = 0 },
		func(c *Config) { c.LineBytes = 60 }, // not multiple of 8
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.Ranks = 0 },
		func(c *Config) { c.BanksPerRank = 0 },
		func(c *Config) { c.RowBytes = 32 },
		func(c *Config) { c.RowBytes = 100 }, // not multiple of line
		func(c *Config) { c.TRPns = -1 },
		func(c *Config) { c.TREFIns = 100; c.TRFCns = 200 },
		func(c *Config) { c.BusMHz = math.NaN() },
		func(c *Config) { c.BusMHz = math.Inf(1) },
		func(c *Config) { c.CPUGHz = math.NaN() },
		func(c *Config) { c.TRPns = math.NaN() },
		func(c *Config) { *c = c.ScaleBandwidth(1e300) },  // peak GB/s overflows
		func(c *Config) { *c = c.ScaleBandwidth(1e-300) }, // burst cycles overflow int64
		func(c *Config) { c.TREFIns = 1e300 },             // refresh interval overflows int64
		func(c *Config) { c.CLns = MaxTimingCycles/c.CPUGHz + 1 },
	}
	for i, mutate := range bad {
		cfg := DDR2_400()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad config", i)
		}
	}
}

func TestDecodeRoundTripDistinct(t *testing.T) {
	cfg := DDR2_400()
	seen := map[Coord]uint64{}
	// Consecutive lines must spread across ranks first (rank is the
	// least-significant field in channel/row/col/bank/rank mapping).
	for i := uint64(0); i < 8; i++ {
		co := cfg.Decode(i * uint64(cfg.LineBytes))
		if prev, dup := seen[co]; dup {
			t.Fatalf("addresses %d and %d map to same coord %+v", prev, i, co)
		}
		seen[co] = i
	}
	c0 := cfg.Decode(0)
	c1 := cfg.Decode(uint64(cfg.LineBytes))
	if c0.Rank == c1.Rank {
		t.Fatalf("consecutive lines should change rank first: %+v vs %+v", c0, c1)
	}
}

func TestDecodeSameLineSameCoord(t *testing.T) {
	cfg := DDR2_400()
	a := cfg.Decode(0x12345)
	b := cfg.Decode(0x12345 - 0x12345%uint64(cfg.LineBytes))
	if a != b {
		t.Fatalf("offsets within a line must decode identically: %+v vs %+v", a, b)
	}
}

func TestDecodeFieldsInRange(t *testing.T) {
	cfg := DDR2_400()
	f := func(addr uint64) bool {
		co := cfg.Decode(addr)
		return co.Channel >= 0 && co.Channel < cfg.Channels &&
			co.Rank >= 0 && co.Rank < cfg.Ranks &&
			co.Bank >= 0 && co.Bank < cfg.BanksPerRank &&
			co.Col >= 0 && co.Col < cfg.RowBytes/cfg.LineBytes &&
			co.Row >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalBankDense(t *testing.T) {
	cfg := DDR2_400()
	seen := map[int]bool{}
	for ch := 0; ch < cfg.Channels; ch++ {
		for r := 0; r < cfg.Ranks; r++ {
			for b := 0; b < cfg.BanksPerRank; b++ {
				g := cfg.GlobalBank(Coord{Channel: ch, Rank: r, Bank: b})
				if g < 0 || g >= cfg.NumBanks() || seen[g] {
					t.Fatalf("GlobalBank not a bijection at %d/%d/%d -> %d", ch, r, b, g)
				}
				seen[g] = true
			}
		}
	}
}

// noRefresh disables refresh so latency arithmetic is exact.
func noRefresh(cfg Config) Config {
	cfg.TRFCns = 0
	cfg.TREFIns = 0
	return cfg
}

func TestClosePageSingleAccessLatency(t *testing.T) {
	dev, err := NewDevice(noRefresh(DDR2_400()))
	if err != nil {
		t.Fatal(err)
	}
	co := dev.Config().Decode(0)
	done := dev.Issue(1000, co, 0, false)
	tm := dev.Timing()
	want := 1000 + tm.TRCD + tm.CL + tm.Burst
	if done != want {
		t.Fatalf("close-page latency: done=%d, want %d", done, want)
	}
	// Bank must be unavailable until after precharge.
	if dev.BankReady(co, done+tm.TRP-1) {
		t.Fatal("bank ready before precharge finished")
	}
	if !dev.BankReady(co, done+tm.TRP) {
		t.Fatal("bank not ready after precharge")
	}
}

func TestOpenPageRowHitFasterThanConflict(t *testing.T) {
	cfg := noRefresh(DDR2_400())
	cfg.Policy = OpenPage
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	co := cfg.Decode(0)
	first := dev.Issue(0, co, 0, false)
	if !dev.RowHit(co) {
		t.Fatal("row should stay open after open-page access")
	}
	// Same row: no activate needed.
	hitDone := dev.Issue(first, co, 0, false)
	hitLat := hitDone - first
	// Different row, same bank: precharge + activate.
	conflict := co
	conflict.Row++
	confDone := dev.Issue(hitDone, conflict, 0, false)
	confLat := confDone - hitDone
	tm := dev.Timing()
	if hitLat != tm.CL+tm.Burst {
		t.Fatalf("row-hit latency = %d, want %d", hitLat, tm.CL+tm.Burst)
	}
	if confLat != tm.TRP+tm.TRCD+tm.CL+tm.Burst {
		t.Fatalf("conflict latency = %d, want %d", confLat, tm.TRP+tm.TRCD+tm.CL+tm.Burst)
	}
	st := dev.Stats()
	if st.RowHits != 1 {
		t.Fatalf("row hits = %d, want 1", st.RowHits)
	}
}

func TestClosePageNeverRowHit(t *testing.T) {
	dev, _ := NewDevice(noRefresh(DDR2_400()))
	co := dev.Config().Decode(0)
	dev.Issue(0, co, 0, false)
	if dev.RowHit(co) {
		t.Fatal("close-page policy must not report row hits")
	}
}

func TestBusSerializesBursts(t *testing.T) {
	cfg := noRefresh(DDR2_400())
	dev, _ := NewDevice(cfg)
	tm := dev.Timing()
	// Two accesses to different banks issued the same cycle: the second's
	// data must wait for the first burst to drain off the shared bus.
	a := cfg.Decode(0)
	b := cfg.Decode(uint64(cfg.LineBytes)) // next line -> different rank/bank
	if cfg.GlobalBank(a) == cfg.GlobalBank(b) {
		t.Fatal("test setup: expected distinct banks")
	}
	d1 := dev.Issue(0, a, 0, false)
	d2 := dev.Issue(0, b, 1, false)
	if d2 != d1+tm.Burst {
		t.Fatalf("second burst at %d, want %d (serialized)", d2, d1+tm.Burst)
	}
}

func TestBusThroughputMatchesPeak(t *testing.T) {
	cfg := noRefresh(DDR2_400())
	dev, _ := NewDevice(cfg)
	tm := dev.Timing()
	// Saturate: issue to rotating banks as soon as each bank is free. The
	// steady-state completion spacing must equal the burst time (bus-bound).
	var last int64
	n := 200
	addr := uint64(0)
	var prev int64
	for i := 0; i < n; i++ {
		co := cfg.Decode(addr)
		addr += uint64(cfg.LineBytes)
		now := last // issue immediately after previous issue time
		for !dev.BankReady(co, now) {
			now++
		}
		done := dev.Issue(now, co, 0, false)
		if i > 32 && done-prev != tm.Burst {
			t.Fatalf("access %d: spacing %d, want %d", i, done-prev, tm.Burst)
		}
		prev = done
	}
}

func TestIssueToBusyBankPanics(t *testing.T) {
	dev, _ := NewDevice(noRefresh(DDR2_400()))
	co := dev.Config().Decode(0)
	dev.Issue(0, co, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on issue to busy bank")
		}
	}()
	dev.Issue(1, co, 0, false) // bank still busy
}

func TestContentionAttribution(t *testing.T) {
	cfg := noRefresh(DDR2_400())
	dev, _ := NewDevice(cfg)
	co := cfg.Decode(0)
	dev.Issue(0, co, 7, false)
	bl := dev.Contention(co, 3, 1)
	if !bl.Blocked || bl.App != 7 {
		t.Fatalf("expected blocked by app 7, got %+v", bl)
	}
	// Different bank, but the shared bus is backlogged by app 7.
	other := cfg.Decode(uint64(cfg.LineBytes))
	bl = dev.Contention(other, 3, 1)
	if !bl.Blocked || bl.App != 7 {
		t.Fatalf("expected bus-blocked by app 7, got %+v", bl)
	}
	// Far in the future everything is free.
	bl = dev.Contention(co, 3, 1_000_000)
	if bl.Blocked {
		t.Fatalf("expected unblocked, got %+v", bl)
	}
}

func TestRefreshDelaysAccesses(t *testing.T) {
	cfg := DDR2_400() // refresh enabled
	dev, _ := NewDevice(cfg)
	tm := dev.Timing()
	if tm.TRFC == 0 {
		t.Fatal("refresh should be enabled in baseline config")
	}
	// Rank 0's first refresh window is [0, TRFC): an access issued at cycle
	// 0 must be pushed past it.
	co := Coord{Channel: 0, Rank: 0, Bank: 0, Row: 0, Col: 0}
	done := dev.Issue(0, co, 0, false)
	wantMin := tm.TRFC + tm.TRCD + tm.CL + tm.Burst
	if done < wantMin {
		t.Fatalf("refresh not applied: done=%d, want >= %d", done, wantMin)
	}
}

func TestStatsCounting(t *testing.T) {
	cfg := noRefresh(DDR2_400())
	dev, _ := NewDevice(cfg)
	co := cfg.Decode(0)
	done := dev.Issue(0, co, 0, false)
	tm := dev.Timing()
	for !dev.BankReady(co, done+tm.TRP) {
		done++
	}
	dev.Issue(done+tm.TRP, co, 0, true)
	st := dev.Stats()
	if st.ServedReads != 1 || st.ServedWrites != 1 {
		t.Fatalf("served = %d reads, %d writes; want 1,1", st.ServedReads, st.ServedWrites)
	}
	if st.BusBusyCycles != 2*tm.Burst {
		t.Fatalf("bus busy = %d, want %d", st.BusBusyCycles, 2*tm.Burst)
	}
	if st.Activates != 2 {
		t.Fatalf("activates = %d, want 2", st.Activates)
	}
}

func TestBusUtilizationBounds(t *testing.T) {
	cfg := noRefresh(DDR2_400())
	dev, _ := NewDevice(cfg)
	if u := dev.BusUtilization(0); u != 0 {
		t.Fatalf("utilization of zero elapsed = %v", u)
	}
	r := rand.New(rand.NewSource(1))
	now := int64(0)
	for i := 0; i < 100; i++ {
		co := cfg.Decode(uint64(r.Intn(1<<24)) * uint64(cfg.LineBytes))
		for !dev.BankReady(co, now) {
			now++
		}
		done := dev.Issue(now, co, 0, false)
		now = done
	}
	u := dev.BusUtilization(now)
	if u <= 0 || u > 1 {
		t.Fatalf("utilization out of range: %v", u)
	}
}

func TestDDR3_1600Preset(t *testing.T) {
	cfg := DDR3_1600()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.PeakBandwidthGBs(); got != 12.8 {
		t.Fatalf("DDR3-1600 peak = %v GB/s, want 12.8", got)
	}
	tm := cfg.Timing()
	// 64B on an 8B DDR bus at 800 MHz: 4 bus cycles = 5 ns = 25 CPU cycles.
	if tm.Burst != 25 {
		t.Fatalf("burst = %d, want 25", tm.Burst)
	}
	// Higher absolute latency in cycles than DDR2 (13.75 ns at 5 GHz).
	if tm.CL != 69 {
		t.Fatalf("CL = %d, want 69", tm.CL)
	}
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	co := cfg.Decode(1 << 30)
	done := dev.Issue(1_000_000, co, 0, false)
	if done <= 1_000_000 {
		t.Fatal("issue did not advance time")
	}
}
