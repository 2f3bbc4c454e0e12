// Package resilience is PREDATOR's fault-containment layer. A detector that
// is meant to stay attached to long-running workloads (the paper spends §2.4
// bounding runtime cost precisely so detection can stay on) must shed
// precision under pressure instead of crashing: a misbehaving heap hook, a
// panicking diagnostics route, or an adversarial workload that promotes
// millions of lines to detailed tracking are operational hazards, not
// reasons to lose the run. This package provides the two primitives the
// rest of the stack wires in:
//
//   - Guard: a recover boundary with a panic budget. A component that panics
//     more than its limit is quarantined — subsequent invocations are skipped
//     — while the caller keeps running.
//   - Budget: a bounded-resource admission counter used by the core
//     runtime's tracked-line governor and the prediction registry's
//     virtual-line cap, so per-line metadata cannot grow without bound.
//
// Degradation, never failure: every primitive here turns a crash or an
// unbounded growth path into an accounted, observable loss of detail.
package resilience

import (
	"fmt"
	"sync/atomic"
)

// DefaultPanicLimit is the number of panics after which a guarded component
// is quarantined.
const DefaultPanicLimit = 3

// Guard is a recover boundary around one named component. After Limit
// panics the component is quarantined: Run skips the function and returns
// false immediately. Guard is safe for concurrent use.
type Guard struct {
	name  string
	limit uint64
	// predlint padcheck: pads keep each contended counter on its own cache line.
	_            [40]byte
	panics       atomic.Uint64
	_            [56]byte
	quarantined  atomic.Bool
	onQuarantine func(name string, panics uint64) // runs once, at quarantine
}

// NewGuard builds a guard for a named component. limit <= 0 selects
// DefaultPanicLimit. onQuarantine, when non-nil, runs exactly once when the
// component is quarantined (itself behind a recover so a panicking callback
// cannot defeat the guard).
func NewGuard(name string, limit int, onQuarantine func(name string, panics uint64)) *Guard {
	if limit <= 0 {
		limit = DefaultPanicLimit
	}
	return &Guard{name: name, limit: uint64(limit), onQuarantine: onQuarantine}
}

// Run invokes fn behind the recover boundary. It returns true when fn
// completed without panicking, false when fn panicked or the component is
// quarantined.
func (g *Guard) Run(fn func()) (ok bool) {
	if g.quarantined.Load() {
		return false
	}
	defer func() {
		if r := recover(); r != nil {
			ok = false
			if g.panics.Add(1) >= g.limit {
				g.enterQuarantine()
			}
		}
	}()
	fn()
	return true
}

// enterQuarantine flips the quarantine flag exactly once and fires the
// callback.
func (g *Guard) enterQuarantine() {
	if g.quarantined.Swap(true) {
		return
	}
	if g.onQuarantine != nil {
		func() {
			defer func() { _ = recover() }()
			g.onQuarantine(g.name, g.panics.Load())
		}()
	}
}

// Name returns the guarded component's name.
func (g *Guard) Name() string { return g.name }

// Panics returns how many panics the guard has absorbed.
func (g *Guard) Panics() uint64 { return g.panics.Load() }

// Quarantined reports whether the component has been quarantined.
func (g *Guard) Quarantined() bool { return g.quarantined.Load() }

// Budget is an admission counter for a bounded resource: Acquire succeeds
// until limit slots are held, Release returns a slot. A limit of 0 means
// unlimited. Budget is safe for concurrent use.
type Budget struct {
	limit int64
	// predlint padcheck: pads keep each contended counter on its own cache line.
	_    [56]byte
	used atomic.Int64
	_    [56]byte
	full atomic.Uint64 // rejected acquisitions
}

// NewBudget builds a budget with the given limit; limit <= 0 is unlimited.
func NewBudget(limit int) *Budget {
	if limit < 0 {
		limit = 0
	}
	return &Budget{limit: int64(limit)}
}

// Acquire takes one slot, reporting false (and counting the rejection) when
// the budget is exhausted.
func (b *Budget) Acquire() bool {
	if b.limit <= 0 {
		b.used.Add(1)
		return true
	}
	for {
		cur := b.used.Load()
		if cur >= b.limit {
			b.full.Add(1)
			return false
		}
		if b.used.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// Release returns one slot.
func (b *Budget) Release() { b.used.Add(-1) }

// Used returns the number of held slots.
func (b *Budget) Used() int64 { return b.used.Load() }

// Limit returns the budget's limit (0 = unlimited).
func (b *Budget) Limit() int64 { return b.limit }

// Rejected returns how many acquisitions the budget has refused.
func (b *Budget) Rejected() uint64 { return b.full.Load() }

// Bounded reports whether the budget enforces a limit.
func (b *Budget) Bounded() bool { return b.limit > 0 }

// String summarizes the budget for degradation banners.
func (b *Budget) String() string {
	if !b.Bounded() {
		return fmt.Sprintf("%d used (unlimited)", b.Used())
	}
	return fmt.Sprintf("%d/%d used, %d rejected", b.Used(), b.limit, b.Rejected())
}
