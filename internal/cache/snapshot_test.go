package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"bwpart/internal/mem"
)

// TestLineSize pins the line arrays' footprint, which is also a snapshot's:
// 10 B a private line (its tag and meta word), 14 B a shared one (and its
// owner).
func TestLineSize(t *testing.T) {
	private, err := New(sharedCfg(), &fakeLower{})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewShared(sharedCfg(), 2, []int{4, 4}, &fakeLower{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		e    *engine
		want uintptr
	}{{"private", &private.engine, 10}, {"shared", &shared.engine, 14}} {
		e := tc.e
		bytes := uintptr(cap(e.tags))*unsafe.Sizeof(e.tags[0]) + uintptr(cap(e.meta))*unsafe.Sizeof(e.meta[0]) +
			uintptr(cap(e.owners))*unsafe.Sizeof(int32(0))
		if got := bytes / uintptr(len(e.tags)); got != tc.want || bytes%uintptr(len(e.tags)) != 0 {
			t.Errorf("%s: %d B over %d lines, want %d B a line", tc.name, bytes, len(e.tags), tc.want)
		}
	}
}

// snapCache is what the LRU round trip needs of either cache.
type snapCache interface {
	mem.Port
	Tick(now int64)
	Snapshot() *State
}

// TestRestoreRefusesIncompatibleState: both caches are built from a state
// through one check, which must refuse — building nothing — a nil state,
// another geometry (size, associativity or line size), a state of the other
// kind and another app count. (The name predates building from a state; the
// suite's pinned test list keys on it.)
func TestRestoreRefusesIncompatibleState(t *testing.T) {
	cfg := sharedCfg()
	bigger := cfg
	bigger.SizeBytes *= 2
	narrower := cfg // as many lines, in twice as many sets
	narrower.Ways /= 2
	finer := cfg // as many lines and sets, of half the size
	finer.SizeBytes /= 2
	finer.LineBytes /= 2
	snapshot := func(c snapCache, err error) *State {
		if err != nil {
			t.Fatal(err)
		}
		return c.Snapshot()
	}
	private := func(cfg Config) *State { return snapshot(New(cfg, &fakeLower{})) }
	shared := func(cfg Config, quota ...int) *State {
		return snapshot(NewShared(cfg, len(quota), quota, &fakeLower{}))
	}
	// The targets: a private cache of cfg, and a two-app (or one-app) shared
	// cache of cfg. Each reports whether it built a cache.
	intoPrivate := func(st *State) (bool, error) {
		c, err := FromState(st, cfg, &fakeLower{})
		return c != nil, err
	}
	intoShared := func(apps int) func(st *State) (bool, error) {
		return func(st *State) (bool, error) {
			c, err := SharedFromState(st, cfg, apps, &fakeLower{})
			return c != nil, err
		}
	}
	// Each target accepts a state of its own kind, geometry and app count.
	for _, ok := range []struct {
		into func(*State) (bool, error)
		st   *State
	}{{intoPrivate, private(cfg)}, {intoShared(2), shared(cfg, 4, 4)}, {intoShared(1), shared(cfg, 8)}} {
		if built, err := ok.into(ok.st); err != nil || !built {
			t.Fatalf("a compatible state refused: %v", err)
		}
	}
	cases := []struct {
		name string
		into func(*State) (bool, error)
		st   *State
	}{
		{"private/nil", intoPrivate, nil},
		{"shared/nil", intoShared(2), nil},
		{"private/geometry", intoPrivate, private(bigger)},
		{"shared/geometry", intoShared(2), shared(bigger, 4, 4)},
		{"private/associativity", intoPrivate, private(narrower)},
		{"private/line size", intoPrivate, private(finer)},
		{"shared/associativity", intoShared(2), shared(narrower, 2, 2)},
		{"private/shared state", intoPrivate, shared(cfg, 8)},
		{"shared/private state", intoShared(1), private(cfg)},
		{"shared/app count", intoShared(2), shared(cfg, 8)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before *State
			if tc.st != nil {
				before = &State{ways: tc.st.ways, lineBytes: tc.st.lineBytes, tags: slices.Clone(tc.st.tags), meta: slices.Clone(tc.st.meta),
					owners: slices.Clone(tc.st.owners), stats: slices.Clone(tc.st.stats), quota: slices.Clone(tc.st.quota)}
			}
			built, err := tc.into(tc.st)
			if err == nil || built {
				t.Fatalf("incompatible state: built %v, error %v; want a refusal and no cache", built, err)
			}
			if tc.st != nil && !reflect.DeepEqual(before, tc.st) {
				t.Error("a refused build changed the state")
			}
		})
	}
}

// lruOp is one access of the LRU round-trip stream.
type lruOp struct {
	addr  uint64
	write bool
	app   int
}

// lruStream is a seeded access stream in batches: every batch is issued in one
// cycle and the cache is then left to go quiescent (no MSHR, no pending event,
// nothing in flight below), which is where a snapshot may be taken. The first
// three batches are fixed: a miss; a hit on that line followed by a miss into
// the same set, so the fill lands after the hit; and a lone hit. 24 lines over
// four sets of four ways keep every set under pressure.
func lruStream(seed int64, apps int) [][]lruOp {
	batches := [][]lruOp{
		{{addr: 0x000}},
		{{addr: 0x008}, {addr: 0x100, write: true}},
		{{addr: 0x100}},
	}
	r := rand.New(rand.NewSource(seed))
	for len(batches) < 400 {
		batch := make([]lruOp, 1+r.Intn(3))
		for i := range batch {
			batch[i] = lruOp{addr: uint64(r.Intn(24))*64 + uint64(r.Intn(64)), write: r.Intn(3) == 0, app: r.Intn(apps)}
		}
		batches = append(batches, batch)
	}
	return batches
}

// lruCache is what the round trip needs of either cache.
type lruCache interface {
	snapCache
	Idle() bool
}

// TestSnapshotLRURoundTrip: a cache built from a snapshot must make every
// later replacement decision the original makes. Both
// are driven with the rest of the stream after the snapshot point and must
// agree on every access's verdict (refused, miss or hit), on the counters
// after every batch, and on the read and writeback streams the lower level
// sees. The points cover a fresh cache (a way still empty), the line a hit
// made most recent just before a fill into its set, and warm, saturated sets — for a
// private cache with a depth-2 prefetcher and for a shared cache with an
// uneven way quota.
func TestSnapshotLRURoundTrip(t *testing.T) {
	cfg := Config{Name: "R", SizeBytes: 1024, Ways: 4, LineBytes: 64, HitLatency: 2, MSHRs: 8}
	prefetch := cfg
	prefetch.PrefetchDepth = 2
	cases := []struct {
		name  string
		apps  int
		build func(low *fakeLower) (lruCache, error)
		from  func(st *State, low *fakeLower) (lruCache, error)
		stats func(c lruCache) []Stats
	}{
		{
			name: "private+prefetch2", apps: 1,
			build: func(low *fakeLower) (lruCache, error) { return New(prefetch, low) },
			from:  func(st *State, low *fakeLower) (lruCache, error) { return FromState(st, prefetch, low) },
			stats: func(c lruCache) []Stats { return []Stats{c.(*Cache).Stats()} },
		},
		{
			name: "shared", apps: 2,
			build: func(low *fakeLower) (lruCache, error) { return NewShared(cfg, 2, []int{1, 3}, low) },
			from:  func(st *State, low *fakeLower) (lruCache, error) { return SharedFromState(st, cfg, 2, low) },
			stats: func(c lruCache) []Stats { return append([]Stats(nil), c.(*SharedCache).stats...) },
		},
	}
	// tags reads the engine's tag array, to check the fresh-cache point is one.
	tags := func(c lruCache) []uint64 {
		if p, ok := c.(*Cache); ok {
			return p.tags
		}
		return c.(*SharedCache).tags
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			stream := lruStream(seed, tc.apps)
			for _, at := range []int{0, 1, 2, 3, 40, 150, 260} {
				t.Run(fmt.Sprintf("%s/seed=%d/at=%d", tc.name, seed, at), func(t *testing.T) {
					build := func() (lruCache, *fakeLower) {
						low := &fakeLower{delay: 3}
						c, err := tc.build(low)
						if err != nil {
							t.Fatal(err)
						}
						return c, low
					}
					// run issues one batch at cycle now, settles the cache and
					// returns each access's verdict and the next free cycle.
					run := func(c lruCache, low *fakeLower, now int64, batch []lruOp) ([]string, int64) {
						var verdicts []string
						for _, op := range batch {
							hits := tc.stats(c)[op.app].Hits
							req := &mem.Request{Addr: op.addr, Write: op.write, App: op.app, Done: func(int64) {}}
							switch {
							case !c.Access(now, req):
								verdicts = append(verdicts, "refused")
							case tc.stats(c)[op.app].Hits > hits:
								verdicts = append(verdicts, "hit")
							default:
								verdicts = append(verdicts, "miss")
							}
						}
						for end := now + 2*cfg.HitLatency + 2; now < end; {
							now++
							c.Tick(now)
							low.deliver()
						}
						if !c.Idle() || len(low.pending) != 0 {
							t.Fatalf("cycle %d: not quiescent: idle %v, %d requests below", now, c.Idle(), len(low.pending))
						}
						return verdicts, now
					}

					orig, origLow := build()
					now := int64(0)
					for _, batch := range stream[:at] {
						_, now = run(orig, origLow, now, batch)
					}
					if at == 1 && !slices.Contains(tags(orig), invalidTag) {
						t.Fatal("the fresh-cache point has no empty way")
					}
					restLow := &fakeLower{delay: 3}
					restored, err := tc.from(orig.Snapshot(), restLow)
					if err != nil {
						t.Fatal(err)
					}
					reads, writes := len(origLow.reads), len(origLow.writes)
					for i, batch := range stream[at:] {
						want, next := run(orig, origLow, now, batch)
						got, _ := run(restored, restLow, now, batch)
						now = next
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("batch %d: restored verdicts %v, original %v", at+i, got, want)
						}
						if got, want := tc.stats(restored), tc.stats(orig); !reflect.DeepEqual(got, want) {
							t.Fatalf("batch %d: restored stats %+v, original %+v", at+i, got, want)
						}
					}
					if !reflect.DeepEqual(restLow.reads, origLow.reads[reads:]) {
						t.Error("read streams differ after the snapshot")
					}
					if !reflect.DeepEqual(restLow.writes, origLow.writes[writes:]) {
						t.Error("writeback streams differ after the snapshot")
					}
					if s := tc.stats(orig); s[0].Writebacks == 0 || s[0].Hits == 0 {
						t.Errorf("stream too tame to compare: %+v", s)
					}
				})
			}
		}
	}
}
