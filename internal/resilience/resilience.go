// Package resilience is PREDATOR's fault-containment layer. A detector that
// is meant to stay attached to long-running workloads (the paper spends §2.4
// bounding runtime cost precisely so detection can stay on) must not lose
// the run to a misbehaving heap hook or a panicking diagnostics route. Guard
// is the primitive the rest of the stack wires in: a recover boundary with a
// panic budget. A component that panics more than its limit is quarantined —
// subsequent invocations are skipped — while the caller keeps running, so a
// crash becomes an accounted, observable loss of that component.
package resilience

import "sync/atomic"

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
