package resilience

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestGuardAbsorbsPanicsUntilLimit(t *testing.T) {
	g := NewGuard("boom", 3, nil)
	calls := 0
	for i := 0; i < 3; i++ {
		if ok := g.Run(func() { calls++; panic("injected") }); ok {
			t.Fatalf("run %d: ok = true for panicking fn", i)
		}
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if !g.Quarantined() {
		t.Error("not quarantined after limit panics")
	}
	if g.Panics() != 3 {
		t.Errorf("Panics = %d, want 3", g.Panics())
	}
	// Quarantined: the function must not run at all.
	if ok := g.Run(func() { calls++ }); ok {
		t.Error("quarantined guard ran fn")
	}
	if calls != 3 {
		t.Errorf("quarantined guard invoked fn (calls = %d)", calls)
	}
}

func TestGuardHealthyPath(t *testing.T) {
	g := NewGuard("fine", 0, nil)
	ran := false
	if ok := g.Run(func() { ran = true }); !ok || !ran {
		t.Errorf("ok = %v, ran = %v", ok, ran)
	}
	if g.Quarantined() || g.Panics() != 0 {
		t.Errorf("healthy guard: quarantined=%v panics=%d", g.Quarantined(), g.Panics())
	}
}

func TestGuardDefaultLimit(t *testing.T) {
	g := NewGuard("d", 0, nil)
	for i := 0; i < DefaultPanicLimit-1; i++ {
		g.Run(func() { panic("x") })
	}
	if g.Quarantined() {
		t.Fatal("quarantined before DefaultPanicLimit")
	}
	g.Run(func() { panic("x") })
	if !g.Quarantined() {
		t.Error("not quarantined at DefaultPanicLimit")
	}
}

func TestGuardQuarantineCallbackOnce(t *testing.T) {
	var fires atomic.Uint64
	g := NewGuard("cb", 1, func(name string, panics uint64) {
		if name != "cb" {
			t.Errorf("callback name = %q", name)
		}
		fires.Add(1)
		panic("callback itself panics") // must not defeat the guard
	})
	g.Run(func() { panic("x") })
	g.Run(func() { panic("x") }) // skipped: already quarantined
	if fires.Load() != 1 {
		t.Errorf("onQuarantine fired %d times, want 1", fires.Load())
	}
}

// TestChaosSinkQuarantineConcurrent drives one guard around an
// always-panicking component from many goroutines: no panic may escape,
// quarantine must engage with exactly one notice, and the component must
// stop being invoked afterwards (run under -race).
func TestChaosSinkQuarantineConcurrent(t *testing.T) {
	const workers, perWorker = 8, 200
	var calls, notices atomic.Uint64
	g := NewGuard("chaos", DefaultPanicLimit, func(string, uint64) { notices.Add(1) })
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Run(func() {
					calls.Add(1)
					panic("always")
				})
			}
		}()
	}
	wg.Wait()
	if !g.Quarantined() {
		t.Fatal("component not quarantined")
	}
	if notices.Load() != 1 {
		t.Errorf("quarantine notice fired %d times, want 1", notices.Load())
	}
	// Racing callers may slip a few extra panics in before the flag lands,
	// but quarantine must have stopped the calls well before the end.
	if n := calls.Load(); n >= workers*perWorker {
		t.Errorf("component ran on every call (%d); quarantine never engaged", n)
	}
}
