package cache

import (
	"reflect"
	"testing"
	"unsafe"

	"bwpart/internal/mem"
)

// TestLineSize pins the set array's footprint: the way partition's owner
// lives in padding the line already had.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 24 {
		t.Fatalf("line is %d bytes, want 24", got)
	}
}

// snapCache is what the restore table needs of either cache.
type snapCache interface {
	mem.Port
	Snapshot() *State
	Restore(*State) error
}

// TestRestoreRefusesIncompatibleState: both caches restore through one
// validation, which must refuse — before changing anything — a nil state,
// another geometry, more MSHRs than the cache has, a state of the other kind,
// and another app count.
func TestRestoreRefusesIncompatibleState(t *testing.T) {
	cfg := sharedCfg() // 8 MSHRs
	fewMSHRs := cfg
	fewMSHRs.MSHRs = 2
	bigger := cfg
	bigger.SizeBytes *= 2
	private := func(cfg Config) snapCache {
		c, err := New(cfg, &fakeLower{delay: 5})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	shared := func(cfg Config, quota ...int) snapCache {
		c, err := NewShared(cfg, len(quota), quota, &fakeLower{delay: 5})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// busy returns c's state with four misses outstanding.
	busy := func(c snapCache) *State {
		for i := 0; i < 4; i++ {
			if !c.Access(0, &mem.Request{Addr: uint64(i) * 64, Done: func(int64) {}}) {
				t.Fatal("miss refused")
			}
		}
		return c.Snapshot()
	}
	cases := []struct {
		name string
		into snapCache
		st   *State
	}{
		{"private/nil", private(cfg), nil},
		{"shared/nil", shared(cfg, 4, 4), nil},
		{"private/geometry", private(cfg), private(bigger).Snapshot()},
		{"shared/geometry", shared(cfg, 4, 4), shared(bigger, 4, 4).Snapshot()},
		{"private/too many MSHRs", private(fewMSHRs), busy(private(cfg))},
		{"shared/too many MSHRs", shared(fewMSHRs, 4, 4), busy(shared(cfg, 4, 4))},
		{"private/shared state", private(cfg), shared(cfg, 8).Snapshot()},
		{"shared/private state", shared(cfg, 8), private(cfg).Snapshot()},
		{"shared/app count", shared(cfg, 4, 4), shared(cfg, 8).Snapshot()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.into.Access(0, &mem.Request{Addr: 0x40, Write: true})
			before := tc.into.Snapshot()
			if err := tc.into.Restore(tc.st); err == nil {
				t.Fatal("incompatible state accepted")
			}
			if after := tc.into.Snapshot(); !reflect.DeepEqual(before, after) {
				t.Error("refused restore changed the cache")
			}
		})
	}
}
