package memctrl

import (
	"errors"

	"bwpart/internal/dram"
)

// BudgetThrottle enforces bandwidth shares with per-period access budgets,
// the MemGuard-style alternative to start-time fair queueing: each period,
// every application receives a budget of accesses proportional to its
// share; applications with remaining budget are served first (oldest-
// first among them) and over-budget applications only get leftover slots
// (work conserving). Compared to STF, enforcement is bursty within a
// period but identical in the long-run average.
type BudgetThrottle struct {
	shares       []float64
	PeriodCycles int64

	budget    []float64
	periodEnd int64
	perPeriod float64 // total serviceable accesses per period
	init      bool
}

// NewBudgetThrottle builds the throttler for the given share vector
// (positive, normalized internally) and replenishment period.
func NewBudgetThrottle(shares []float64, periodCycles int64) (*BudgetThrottle, error) {
	if len(shares) == 0 {
		return nil, errors.New("memctrl: empty share vector")
	}
	if periodCycles <= 0 {
		return nil, errors.New("memctrl: period must be positive")
	}
	total, err := shareTotal(shares)
	if err != nil {
		return nil, err
	}
	b := &BudgetThrottle{
		shares:       make([]float64, len(shares)),
		PeriodCycles: periodCycles,
		budget:       make([]float64, len(shares)),
	}
	for i, s := range shares {
		b.shares[i] = s / total
	}
	return b, nil
}

func (*BudgetThrottle) Name() string   { return "BudgetThrottle" }
func (*BudgetThrottle) HeadOnly() bool { return true }

// span: idle-safe; replenish is anchored to a fixed period grid and
// budgets are reset by assignment, so one replenish at the wake cycle leaves
// the same budgets as replenishing at every boundary crossed during the span.
func (*BudgetThrottle) span() spanClass { return spanIdle }

func (b *BudgetThrottle) OnIssue(e *Entry) {
	b.budget[e.Req.App]--
}

// replenish resets budgets at period boundaries. The per-period service
// capacity derives from the data-bus burst time. Period boundaries stay
// anchored to multiples of PeriodCycles from the first replenish: when the
// controller goes idle and replenish next fires mid-period (a late
// arrival), the budgets reset for the period already in progress and the
// grid does not drift — long-run shares only average out correctly on a
// fixed period grid.
func (b *BudgetThrottle) replenish(now int64, dev *dram.Device) {
	if b.init && now < b.periodEnd {
		return
	}
	if !b.init {
		burst := dev.Timing().Burst
		if burst <= 0 {
			burst = 1
		}
		b.perPeriod = float64(b.PeriodCycles) / float64(burst) * float64(dev.Config().Channels)
		b.init = true
		b.periodEnd = now + b.PeriodCycles
	} else {
		// Advance whole periods past any idle gap; periodEnd remains
		// anchor + k*PeriodCycles for integer k.
		periodsBehind := (now-b.periodEnd)/b.PeriodCycles + 1
		b.periodEnd += periodsBehind * b.PeriodCycles
	}
	for i, s := range b.shares {
		b.budget[i] = s * b.perPeriod
	}
}

func (b *BudgetThrottle) Pick(now int64, c *Controller, dev *dram.Device) Pick {
	b.replenish(now, dev)
	var inBudget, overBudget *Entry
	for a := range c.queues {
		e := issuableHead(c, dev, a, now)
		if e == nil {
			continue
		}
		if a < len(b.budget) && b.budget[a] >= 1 {
			if inBudget == nil || e.seq < inBudget.seq {
				inBudget = e
			}
		} else if overBudget == nil || e.seq < overBudget.seq {
			overBudget = e
		}
	}
	if inBudget != nil {
		return Pick{Entry: inBudget}
	}
	return Pick{Entry: overBudget}
}
