package cache

import (
	"errors"
	"fmt"

	"bwpart/internal/mem"
)

// SharedCache is a way-partitioned shared cache: all applications index the
// same sets, but each application may occupy at most its allocated number
// of ways per set. This implements the CMP variant in the paper's footnote
// 1 (Sec. IV-A): with a shared partitioned L2, an application's off-chip
// API depends on its capacity share (API_shared vs API_alone), while both
// remain invariant to memory *bandwidth* partitioning.
type SharedCache struct {
	engine
	numApps int
	quota   []int   // ways per set each app may hold
	stats   []Stats // per app
	// MSHRs are also partitioned: without a per-app cap, backlogged
	// streaming applications monopolize the shared miss registers and
	// lighter applications lose every re-allocation race.
	mshrByApp  []int
	mshrAppCap int
	// starved records a refused Access since the upstream L1s were last
	// woken: any MSHR-table change — a fill frees a register and installs a
	// line, a new miss lets another application's access to that line merge —
	// can turn the refusal an L1 is asleep retrying into an acceptance, so it
	// wakes them (see wakeStarved).
	starved bool
}

// wakeStarved wakes the upstream L1s if any access was refused since the
// last time it did. An L1 asleep on a deferred retry was refused for real on
// its last Tick, after the flag was last cleared, so it is never missed.
func (c *SharedCache) wakeStarved() {
	if c.starved {
		c.starved = false
		c.wake.WakeUpstream()
	}
}

// checkQuota validates a partition of ways among numApps applications.
func checkQuota(quota []int, numApps, ways int) error {
	if len(quota) != numApps {
		return fmt.Errorf("cache: quota length %d for %d apps", len(quota), numApps)
	}
	total := 0
	for i, q := range quota {
		if q < 1 {
			return fmt.Errorf("cache: app %d needs at least one way", i)
		}
		total += q
	}
	if total > ways {
		return fmt.Errorf("cache: quotas sum to %d ways, cache has %d", total, ways)
	}
	return nil
}

// NewShared builds a way-partitioned shared cache for numApps applications
// over the given lower level. quota[i] is the number of ways app i may
// occupy in each set; the quotas must sum to at most Config.Ways and every
// app needs at least one way.
func NewShared(cfg Config, numApps int, quota []int, lower mem.Port) (*SharedCache, error) {
	return buildShared(cfg, numApps, quota, lower, nil)
}

// buildShared builds the shared cache, empty or from st.
func buildShared(cfg Config, numApps int, quota []int, lower mem.Port, st *State) (*SharedCache, error) {
	e, err := newEngine(cfg, lower, st)
	if err != nil {
		return nil, err
	}
	if numApps <= 0 {
		return nil, errors.New("cache: need at least one app")
	}
	if err := checkQuota(quota, numApps, cfg.Ways); err != nil {
		return nil, err
	}
	c := &SharedCache{
		engine:     e,
		numApps:    numApps,
		quota:      append([]int(nil), quota...),
		stats:      make([]Stats, numApps),
		mshrByApp:  make([]int, numApps),
		mshrAppCap: max(cfg.MSHRs/numApps, 1),
	}
	if st == nil {
		c.owners = make([]int32, len(c.tags))
	} else {
		copy(c.stats, st.stats)
	}
	c.fillDone = func(m *mshr) func(int64) {
		return func(cycle int64) { c.fill(cycle, m) }
	}
	return c, nil
}

// StatsFor returns app's counters.
func (c *SharedCache) StatsFor(app int) Stats { return c.stats[app] }

// Access implements mem.Port; req.App selects the partition. It answers no
// request in place: a hit completes through Done from the shared cache's own
// tick, which delivers the fills of every L1 in the order their accesses
// came (see package mem).
func (c *SharedCache) Access(now int64, req *mem.Request) bool {
	if req.App < 0 || req.App >= c.numApps {
		panic(fmt.Sprintf("cache: shared access from unknown app %d", req.App))
	}
	c.wake.Wake()
	la := c.lineAddr(req.Addr)
	if base, i := c.lookup(la); i >= 0 {
		c.use(base, i)
		if req.Write {
			c.meta[i] |= metaDirty
		}
		c.stats[req.App].Hits++
		if req.Done != nil {
			c.events.scheduleDone(now+c.cfg.HitLatency, req)
		}
		return true
	}
	if m := c.findMSHR(la); m != nil {
		// Posted stores (nil Done) fold into the MSHR without being
		// retained; callers may reuse their memory once Access returns.
		if req.Done != nil {
			m.waiters = append(m.waiters, req)
		}
		if req.Write {
			m.write = true
		}
		c.stats[req.App].MSHRMerges++
		return true
	}
	if len(c.mshrs) >= c.cfg.MSHRs || c.mshrByApp[req.App] >= c.mshrAppCap {
		c.stats[req.App].Rejects++
		c.starved = true
		return false
	}
	c.wakeStarved()
	m := c.newMSHR(la, req.App)
	m.write = req.Write
	if req.Done != nil {
		m.waiters = append(m.waiters, req)
	}
	c.mshrs = append(c.mshrs, m)
	c.stats[req.App].Misses++
	c.mshrByApp[req.App]++
	c.events.scheduleSend(now+c.cfg.HitLatency, &m.fillReq)
	return true
}

// occupancy returns how many lines app holds in the set at base.
func (c *SharedCache) occupancy(base, app int) int {
	n := 0
	for w, tag := range c.tags[base : base+c.cfg.Ways] {
		if tag != invalidTag && int(c.owners[base+w]) == app {
			n++
		}
	}
	return n
}

// victimFor selects the way to evict for a fill by app in the set at base,
// honoring the way partition: below its quota an application takes an empty
// way, at its quota it evicts its own LRU line. The quotas are fixed for the
// cache's life (one built from a snapshot keeps those its lines were placed
// under) and every line is placed here, so no set holds more than
// quota[app] lines of app: since the quotas sum to at most Ways, a
// below-quota application always finds an empty way, and an at-quota one
// always has a line of its own.
func (c *SharedCache) victimFor(base, app int) int {
	if c.occupancy(base, app) < c.quota[app] {
		for i := base; i < base+c.cfg.Ways; i++ {
			if c.tags[i] == invalidTag {
				return i
			}
		}
	}
	victim := -1
	rank := func(i int) uint16 { return c.meta[i] >> metaRankShift }
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.tags[i] != invalidTag && int(c.owners[i]) == app && (victim < 0 || rank(i) < rank(victim)) {
			victim = i
		}
	}
	return victim
}

// fill installs m's line on miss completion in a way victimFor grants its
// application; a dirty victim is written back on behalf of its owner.
func (c *SharedCache) fill(now int64, m *mshr) {
	c.wake.Wake()
	c.wakeStarved()
	c.claim(m)
	c.mshrByApp[m.app]--
	base := c.setBase(m.la)
	v := c.victimFor(base, m.app)
	if owner := c.owners[v]; c.tags[v] != invalidTag && c.meta[v]&metaDirty != 0 {
		c.stats[owner].Writebacks++
		c.sendLower(now, c.wbs.get(int(owner), c.byteAddr(c.tags[v])))
	}
	c.owners[v] = int32(m.app)
	c.install(base, v, m.la, flag(m.write, metaDirty))
	c.finish(now, m)
}

// AccountRejects implements mem.RejectAccounter: a refused shared-cache
// Access's only effect is the requesting app's reject counter.
func (c *SharedCache) AccountRejects(app int, n int64) {
	c.stats[app].Rejects += n
}

// TouchAs installs addr functionally for warmup, attributed to app (see
// engine.touchResident).
func (c *SharedCache) TouchAs(app int, addr uint64, write bool) {
	if c.touchResident(addr, write) {
		return
	}
	la := c.lineAddr(addr)
	base := c.setBase(la)
	v := c.victimFor(base, app)
	c.owners[v] = int32(app)
	c.install(base, v, la, flag(write, metaDirty))
}

// appPort adapts the shared cache for one application's L1, forwarding
// Touch calls with the app attribution.
type appPort struct {
	c   *SharedCache
	app int
}

// PortFor returns a mem.Port view of the shared cache for one application;
// the returned port also supports functional Touch warmup.
func (c *SharedCache) PortFor(app int) interface {
	mem.Port
	Touch(addr uint64, write bool)
} {
	return appPort{c: c, app: app}
}

func (p appPort) Access(now int64, req *mem.Request) bool {
	req.App = p.app
	return p.c.Access(now, req)
}

// AccountRejects forwards to the shared cache under the port's app — the
// same attribution Access forces by overwriting req.App.
func (p appPort) AccountRejects(_ int, n int64) { p.c.AccountRejects(p.app, n) }

func (p appPort) Touch(addr uint64, write bool) { p.c.TouchAs(p.app, addr, write) }
