package memctrl

import (
	"math/rand"
	"testing"

	"bwpart/internal/dram"
	"bwpart/internal/mem"
)

// benchController drives a 4-app backlogged controller under the given
// scheduler for b.N cycles.
func benchController(b *testing.B, sched Scheduler) {
	b.Helper()
	cfg := dram.DDR2_400()
	dev, err := dram.NewDevice(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(dev, 4, 0, sched)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	addr := [4]uint64{0, 1 << 40, 2 << 40, 3 << 40}
	b.ResetTimer()
	for cyc := int64(0); cyc < int64(b.N); cyc++ {
		for app := 0; app < 4; app++ {
			for c.PendingFor(app) < 8 {
				c.Access(cyc, &mem.Request{App: app, Addr: addr[app]})
				addr[app] += uint64(64 * (1 + r.Intn(8)))
			}
		}
		c.Tick(cyc)
	}
}

func BenchmarkTickFCFS(b *testing.B) { benchController(b, NewFCFS()) }

func BenchmarkTickStartTimeFair(b *testing.B) {
	stf, err := NewStartTimeFair([]float64{0.4, 0.3, 0.2, 0.1})
	if err != nil {
		b.Fatal(err)
	}
	benchController(b, stf)
}

func BenchmarkTickPriority(b *testing.B) {
	pr, err := NewPriority([]int{2, 0, 3, 1})
	if err != nil {
		b.Fatal(err)
	}
	benchController(b, pr)
}

func BenchmarkTickFRFCFS(b *testing.B) { benchController(b, NewFRFCFS(8)) }

// pickSchedulers enumerates the Pick-benchmark scheduler factories. Each
// factory takes the app count so share/priority vectors match.
func pickSchedulers() []struct {
	name string
	mk   func(b *testing.B, apps int) Scheduler
} {
	return []struct {
		name string
		mk   func(b *testing.B, apps int) Scheduler
	}{
		{"fcfs", func(b *testing.B, apps int) Scheduler { return NewFCFS() }},
		{"frfcfs", func(b *testing.B, apps int) Scheduler { return NewFRFCFS(8) }},
		{"stf", func(b *testing.B, apps int) Scheduler {
			s, err := NewStartTimeFair(evenShares(apps))
			if err != nil {
				b.Fatal(err)
			}
			return s
		}},
		{"priority", func(b *testing.B, apps int) Scheduler {
			order := make([]int, apps)
			for i := range order {
				order[i] = apps - 1 - i
			}
			s, err := NewPriority(order)
			if err != nil {
				b.Fatal(err)
			}
			return s
		}},
		{"budget", func(b *testing.B, apps int) Scheduler {
			s, err := NewBudgetThrottle(evenShares(apps), 2000)
			if err != nil {
				b.Fatal(err)
			}
			return s
		}},
	}
}

func evenShares(apps int) []float64 {
	shares := make([]float64, apps)
	for i := range shares {
		shares[i] = 1 / float64(apps)
	}
	return shares
}

// backloggedController builds a controller with perApp queued reads per app
// (no issues performed), so Pick cost can be measured in isolation. The
// address pattern mixes row-local neighbours with bank-crossing jumps.
func backloggedController(b *testing.B, sched Scheduler, apps, perApp int) *Controller {
	b.Helper()
	cfg := dram.DDR2_400()
	dev, err := dram.NewDevice(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(dev, apps, 0, sched)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for app := 0; app < apps; app++ {
		addr := uint64(app) << 40
		for i := 0; i < perApp; i++ {
			c.Access(0, &mem.Request{App: app, Addr: addr})
			if r.Intn(2) == 0 {
				addr += 64
			} else {
				addr += uint64(1) << (13 + r.Intn(8))
			}
		}
	}
	return c
}

// BenchmarkPick measures the cost of one scheduler decision over a static
// backlog of 32 entries for each of 8 apps. All banks are ready (now is far
// in the future), so every queued entry is an issuable candidate — the
// worst case for the scan and the common case under saturation.
func BenchmarkPick(b *testing.B) {
	const apps, perApp = 8, 32
	for _, sc := range pickSchedulers() {
		b.Run(sc.name, func(b *testing.B) {
			sched := sc.mk(b, apps)
			c := backloggedController(b, sched, apps, perApp)
			now := int64(1 << 20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p := sched.Pick(now, c, c.dev); p.Entry == nil {
					b.Fatal("no pick from a full backlog")
				}
			}
		})
	}
}

// BenchmarkControllerSaturated is the end-to-end controller benchmark behind
// BENCH_memctrl.json: a fully backlogged 8-app controller driven (enqueue +
// pick + issue + complete) for b.N cycles under FR-FCFS behind a write-drain
// queue, the most expensive pick in the package.
func BenchmarkControllerSaturated(b *testing.B) {
	const apps = 8
	wd, err := NewWriteDrain(NewFRFCFS(8), 48, 16)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := dram.NewDevice(dram.DDR2_400())
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(dev, apps, 0, wd)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	var addr [apps]uint64
	for i := range addr {
		addr[i] = uint64(i) << 40
	}
	b.ReportAllocs()
	b.ResetTimer()
	for cyc := int64(0); cyc < int64(b.N); cyc++ {
		for app := 0; app < apps; app++ {
			for c.PendingFor(app) < 8 {
				c.Access(cyc, &mem.Request{App: app, Addr: addr[app], Write: r.Intn(4) == 0})
				if r.Intn(2) == 0 {
					addr[app] += 64
				} else {
					addr[app] += uint64(64 * (1 + r.Intn(512)))
				}
			}
		}
		c.Tick(cyc)
	}
}
