package cache

import (
	"errors"
	"fmt"
	"math"

	"bwpart/internal/mem"
)

// SharedCache is a way-partitioned shared cache: all applications index the
// same sets, but each application may occupy at most its allocated number
// of ways per set. This implements the CMP variant in the paper's footnote
// 1 (Sec. IV-A): with a shared partitioned L2, an application's off-chip
// API depends on its capacity share (API_shared vs API_alone), while both
// remain invariant to memory *bandwidth* partitioning.
type SharedCache struct {
	cfg     Config
	numApps int
	quota   []int // ways per set each app may hold
	sets    [][]sline
	setMask uint64
	lower   mem.Port
	// lowerRejects mirrors Cache.lowerRejects: the lower level's
	// closed-form reject accounting, enabling deferred-retry span skipping.
	lowerRejects mem.RejectAccounter
	events       cacheEvents
	mshrs        map[uint64]*mshr
	mshrFree     []*mshr
	wbs          wbPool
	deferred     []*mem.Request
	lruTick      uint64
	// snapID identifies this cache instance in checkpoint request origins
	// (mem.Origin.Comp); assigned by the system builder via SetSnapID.
	snapID int32
	stats  []Stats // per app
	// MSHRs are also partitioned: without a per-app cap, backlogged
	// streaming applications monopolize the shared miss registers and
	// lighter applications lose every re-allocation race.
	mshrByApp  []int
	mshrAppCap int
	// wake is the kernel's wake handle (nil when driven standalone). starved
	// records a refused Access since the upstream L1s were last woken: any
	// MSHR-table change — a fill frees a register and installs a line, a new
	// miss lets another application's access to that line merge — can turn
	// the refusal an L1 is asleep retrying into an acceptance, so it wakes
	// them (see wakeStarved).
	wake    *mem.Waker
	starved bool
}

// SetWaker attaches the simulation kernel's wake handle.
func (c *SharedCache) SetWaker(w *mem.Waker) { c.wake = w }

// wakeStarved wakes the upstream L1s if any access was refused since the
// last time it did. An L1 asleep on a deferred retry was refused for real on
// its last Tick, after the flag was last cleared, so it is never missed.
func (c *SharedCache) wakeStarved() {
	if c.starved {
		c.starved = false
		c.wake.WakeUpstream()
	}
}

type sline struct {
	tag   uint64
	valid bool
	dirty bool
	owner int
	used  uint64
}

// NewShared builds a way-partitioned shared cache for numApps applications
// over the given lower level. quota[i] is the number of ways app i may
// occupy in each set; the quotas must sum to at most Config.Ways and every
// app needs at least one way.
func NewShared(cfg Config, numApps int, quota []int, lower mem.Port) (*SharedCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lower == nil {
		return nil, errors.New("cache: nil lower level")
	}
	if numApps <= 0 {
		return nil, errors.New("cache: need at least one app")
	}
	if len(quota) != numApps {
		return nil, fmt.Errorf("cache: quota length %d for %d apps", len(quota), numApps)
	}
	total := 0
	for i, q := range quota {
		if q < 1 {
			return nil, fmt.Errorf("cache: app %d needs at least one way", i)
		}
		total += q
	}
	if total > cfg.Ways {
		return nil, fmt.Errorf("cache: quotas sum to %d ways, cache has %d", total, cfg.Ways)
	}
	numSets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	sets := make([][]sline, numSets)
	backing := make([]sline, numSets*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	appCap := cfg.MSHRs / numApps
	if appCap < 1 {
		appCap = 1
	}
	c := &SharedCache{
		cfg:        cfg,
		numApps:    numApps,
		quota:      append([]int(nil), quota...),
		sets:       sets,
		setMask:    uint64(numSets - 1),
		lower:      lower,
		mshrs:      make(map[uint64]*mshr),
		stats:      make([]Stats, numApps),
		mshrByApp:  make([]int, numApps),
		mshrAppCap: appCap,
	}
	if ra, ok := lower.(mem.RejectAccounter); ok {
		c.lowerRejects = ra
	}
	return c, nil
}

// Config returns the cache configuration.
func (c *SharedCache) Config() Config { return c.cfg }

// Quota returns a copy of the per-app way quotas.
func (c *SharedCache) Quota() []int { return append([]int(nil), c.quota...) }

// SetQuota re-partitions the ways (e.g. at an epoch boundary). Resident
// lines are not flushed; over-quota occupancy drains naturally through
// victim selection.
func (c *SharedCache) SetQuota(quota []int) error {
	if len(quota) != c.numApps {
		return fmt.Errorf("cache: quota length %d for %d apps", len(quota), c.numApps)
	}
	total := 0
	for i, q := range quota {
		if q < 1 {
			return fmt.Errorf("cache: app %d needs at least one way", i)
		}
		total += q
	}
	if total > c.cfg.Ways {
		return fmt.Errorf("cache: quotas sum to %d ways, cache has %d", total, c.cfg.Ways)
	}
	copy(c.quota, quota)
	return nil
}

// StatsFor returns app's counters.
func (c *SharedCache) StatsFor(app int) Stats { return c.stats[app] }

// ResetStats zeroes all per-app counters.
func (c *SharedCache) ResetStats() {
	for i := range c.stats {
		c.stats[i] = Stats{}
	}
}

func (c *SharedCache) lineAddr(addr uint64) uint64 { return addr / uint64(c.cfg.LineBytes) }

func (c *SharedCache) lookup(la uint64) (int, []sline) {
	set := c.sets[la&c.setMask]
	for w := range set {
		if set[w].valid && set[w].tag == la {
			return w, set
		}
	}
	return -1, set
}

// Access implements mem.Port; req.App selects the partition.
func (c *SharedCache) Access(now int64, req *mem.Request) bool {
	if req.App < 0 || req.App >= c.numApps {
		panic(fmt.Sprintf("cache: shared access from unknown app %d", req.App))
	}
	c.wake.Wake()
	la := c.lineAddr(req.Addr)
	if w, set := c.lookup(la); w >= 0 {
		c.lruTick++
		set[w].used = c.lruTick
		if req.Write {
			set[w].dirty = true
		}
		c.stats[req.App].Hits++
		if req.Done != nil {
			c.events.scheduleDone(now+c.cfg.HitLatency, req)
		}
		return true
	}
	if m, ok := c.mshrs[la]; ok {
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
	c.mshrs[la] = m
	c.stats[req.App].Misses++
	c.mshrByApp[req.App]++
	c.events.scheduleSend(now+c.cfg.HitLatency, &m.fillReq)
	return true
}

// newMSHR takes a recycled MSHR (or builds one with its fill closure) and
// primes it for line la on behalf of app.
func (c *SharedCache) newMSHR(la uint64, app int) *mshr {
	var m *mshr
	if n := len(c.mshrFree); n > 0 {
		m = c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
		m.write, m.prefetch, m.hasWaiter, m.wbApp = false, false, false, 0
	} else {
		m = &mshr{}
		m.fillReq.Done = func(cycle int64) { c.fill(cycle, m) }
	}
	m.la = la
	m.app = app
	m.fillReq.App = app
	m.fillReq.Addr = la * uint64(c.cfg.LineBytes)
	m.fillReq.Origin = mem.Origin{Kind: mem.OriginCacheFill, Comp: c.snapID, Key: la}
	return m
}

func (c *SharedCache) sendLower(now int64, req *mem.Request) {
	if !c.lower.Access(now, req) {
		c.deferred = append(c.deferred, req)
	}
}

// occupancy returns how many lines app holds in the set.
func (c *SharedCache) occupancy(set []sline, app int) int {
	n := 0
	for w := range set {
		if set[w].valid && set[w].owner == app {
			n++
		}
	}
	return n
}

// victimFor selects the way to evict for a fill by app, honoring the way
// partition: an application at or above its quota evicts its own LRU line;
// below quota it takes an invalid way, else the LRU line among apps that
// are over quota, else its own LRU.
func (c *SharedCache) victimFor(set []sline, app int) int {
	// Invalid way available and app under quota: take it.
	if c.occupancy(set, app) < c.quota[app] {
		for w := range set {
			if !set[w].valid {
				return w
			}
		}
		// Steal from the most over-quota-ish app: LRU among lines whose
		// owner exceeds its quota.
		victim := -1
		for w := range set {
			owner := set[w].owner
			if c.occupancy(set, owner) > c.quota[owner] {
				if victim < 0 || set[w].used < set[victim].used {
					victim = w
				}
			}
		}
		if victim >= 0 {
			return victim
		}
		// Everyone within quota but the set is full (sum quotas < ways and
		// invalid exhausted is impossible then); fall through to global
		// LRU among other apps' lines.
		victim = 0
		for w := range set {
			if set[w].used < set[victim].used {
				victim = w
			}
		}
		return victim
	}
	// At/over quota: evict own LRU line.
	victim := -1
	for w := range set {
		if set[w].valid && set[w].owner == app {
			if victim < 0 || set[w].used < set[victim].used {
				victim = w
			}
		}
	}
	if victim >= 0 {
		return victim
	}
	// No own line despite being "at quota" (quota race after SetQuota):
	// global LRU.
	victim = 0
	for w := range set {
		if set[w].used < set[victim].used {
			victim = w
		}
	}
	return victim
}

func (c *SharedCache) fill(now int64, m *mshr) {
	c.wake.Wake()
	c.wakeStarved()
	la, app := m.la, m.app
	if c.mshrs[la] != m {
		panic(fmt.Sprintf("cache %s: shared fill without MSHR for line %#x", c.cfg.Name, la))
	}
	delete(c.mshrs, la)
	c.mshrByApp[app]--
	set := c.sets[la&c.setMask]
	victim := c.victimFor(set, app)
	v := &set[victim]
	if v.valid && v.dirty {
		c.stats[v.owner].Writebacks++
		c.sendLower(now, c.wbs.get(v.owner, v.tag*uint64(c.cfg.LineBytes)))
	}
	c.lruTick++
	*v = sline{tag: la, valid: true, dirty: m.write, owner: app, used: c.lruTick}
	for i, req := range m.waiters {
		req.Done(now)
		m.waiters[i] = nil
	}
	m.waiters = m.waiters[:0]
	c.mshrFree = append(c.mshrFree, m)
}

// Tick runs due events and retries deferred lower-level sends.
func (c *SharedCache) Tick(now int64) {
	c.runEvents(now)
	if len(c.deferred) == 0 {
		return
	}
	kept := c.deferred[:0]
	for i, req := range c.deferred {
		if !c.lower.Access(now, req) {
			kept = append(kept, c.deferred[i:]...)
			break
		}
	}
	c.deferred = kept
}

// NextEventCycle mirrors Cache.NextEventCycle for the shared topology:
// skippable when deferred sends are absent (pure event-queue drain) or the
// lower level can account the span's guaranteed-failing retries in closed
// form, waking at the next scheduled event.
func (c *SharedCache) NextEventCycle(now int64) (int64, bool) {
	if len(c.deferred) > 0 && c.lowerRejects == nil {
		return 0, false
	}
	if next, ok := c.events.next(); ok {
		return next, true
	}
	return math.MaxInt64, true
}

// runEvents dispatches every due event in (cycle, seq) order.
func (c *SharedCache) runEvents(now int64) {
	for len(c.events.h) > 0 && c.events.h[0].cycle <= now {
		ev := c.events.h.Pop()
		if ev.send {
			c.sendLower(ev.cycle, ev.req)
		} else {
			ev.req.Done(ev.cycle)
		}
	}
}

// SkipSpan mirrors Cache.SkipSpan: a deferred-retry span integrates to
// to-from accounted refusals of deferred[0]; an idle span has no effects.
func (c *SharedCache) SkipSpan(from, to int64) {
	if len(c.deferred) > 0 {
		c.lowerRejects.AccountRejects(c.deferred[0].App, to-from)
	}
}

// AccountRejects implements mem.RejectAccounter: a refused shared-cache
// Access's only effect is the requesting app's reject counter.
func (c *SharedCache) AccountRejects(app int, n int64) {
	c.stats[app].Rejects += n
}

// OutstandingMisses returns in-flight miss lines.
func (c *SharedCache) OutstandingMisses() int { return len(c.mshrs) }

// TouchAs installs addr functionally for warmup, attributed to app.
func (c *SharedCache) TouchAs(app int, addr uint64, write bool) {
	la := c.lineAddr(addr)
	if w, set := c.lookup(la); w >= 0 {
		c.lruTick++
		set[w].used = c.lruTick
		if write {
			set[w].dirty = true
		}
		return
	}
	if t, ok := c.lower.(interface{ Touch(uint64, bool) }); ok {
		t.Touch(addr, write)
	}
	set := c.sets[la&c.setMask]
	victim := c.victimFor(set, app)
	c.lruTick++
	set[victim] = sline{tag: la, valid: true, dirty: write, owner: app, used: c.lruTick}
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
