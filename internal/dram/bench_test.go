package dram

import (
	"math/rand"
	"testing"
)

// BenchmarkIssueSequential measures issue cost for a streaming access
// pattern (rank-interleaved consecutive lines).
func BenchmarkIssueSequential(b *testing.B) {
	cfg := DDR2_400()
	dev, err := NewDevice(cfg)
	if err != nil {
		b.Fatal(err)
	}
	addr := uint64(0)
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co := cfg.Decode(addr)
		addr += uint64(cfg.LineBytes)
		for !dev.BankReady(co, now) {
			now += 10
		}
		now = dev.Issue(now, co, 0, false)
	}
}

// BenchmarkIssueRandom measures issue cost for random bank traffic.
func BenchmarkIssueRandom(b *testing.B) {
	cfg := DDR2_400()
	dev, err := NewDevice(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co := cfg.Decode(uint64(r.Intn(1<<26)) * uint64(cfg.LineBytes))
		for !dev.BankReady(co, now) {
			now += 10
		}
		now = dev.Issue(now, co, i&3, i&1 == 0)
	}
}

// BenchmarkDecode measures the address-mapping cost.
func BenchmarkDecode(b *testing.B) {
	cfg := DDR2_400()
	var sink Coord
	for i := 0; i < b.N; i++ {
		sink = cfg.Decode(uint64(i) * 64)
	}
	_ = sink
}

// BenchmarkContention measures the interference-detection query.
func BenchmarkContention(b *testing.B) {
	cfg := DDR2_400()
	dev, _ := NewDevice(cfg)
	co := cfg.Decode(0)
	bank := cfg.GlobalBank(co)
	dev.Issue(0, co, 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.ContentionAt(bank, co.Channel, 1, int64(i%200))
	}
}
