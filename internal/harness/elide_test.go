package harness_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"predator/internal/core"
	"predator/internal/elide"
	"predator/internal/harness"
	"predator/internal/mem"

	_ "predator/internal/workloads/apps"
	_ "predator/internal/workloads/parsec"
	_ "predator/internal/workloads/phoenix"
	_ "predator/internal/workloads/stack"
	_ "predator/internal/workloads/synthetic"
)

// smallOpts runs a workload small and deterministic.
func smallOpts(mode harness.Mode, elision *elide.Manifest) harness.Options {
	return harness.Options{
		Mode:          mode,
		Threads:       2,
		Scale:         1,
		Buggy:         true,
		HeapSize:      16 << 20,
		Deterministic: true,
		Elide:         elision,
	}
}

// countSink counts the accesses a capture sink receives.
type countSink struct {
	mu sync.Mutex
	n  uint64
}

func (s *countSink) HandleAccess(int, uint64, uint64, bool) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// runtimeOn builds a detection runtime over a fresh heap with the given
// line size, the way a caller of ExecuteSimOnHeap does.
func runtimeOn(t *testing.T, lineSize int) (*mem.Heap, *core.Runtime) {
	t.Helper()
	h, err := mem.NewHeap(mem.Config{Size: 16 << 20, LineSize: lineSize})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(h, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return h, rt
}

// TestBuiltinElisionBindRule pins where the built-in manifest binds: on
// both detection paths (the runtime Execute builds, and a *core.Runtime
// handed to ExecuteSimOnHeap), and nowhere else.
func TestBuiltinElisionBindRule(t *testing.T) {
	w, ok := harness.Get("matrix_multiply")
	if !ok {
		t.Fatal("matrix_multiply not registered")
	}
	elided := func(t *testing.T, res *harness.Result, err error) uint64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res.Elided
	}

	var bound *harness.Result
	for _, mode := range []harness.Mode{harness.ModeDetect, harness.ModePredict} {
		res, err := harness.Execute(w, smallOpts(mode, nil))
		if elided(t, res, err) == 0 {
			t.Errorf("Execute %v: built-in manifest elided nothing", mode)
		}
		bound = res
	}
	h, rt := runtimeOn(t, 64)
	res, err := harness.ExecuteSimOnHeap(w, smallOpts(harness.ModePredict, nil), h, rt)
	if elided(t, res, err) == 0 {
		t.Error("ExecuteSimOnHeap with a detection runtime: built-in manifest elided nothing")
	}

	// A capture sink sees every access: the ones the runtime got plus the
	// ones elision dropped before it.
	sink := &countSink{}
	res, err = harness.ExecuteSim(w, smallOpts(harness.ModePredict, nil), sink)
	if elided(t, res, err) != 0 {
		t.Errorf("capture sink: elided %d accesses", res.Elided)
	}
	if want := bound.RuntimeStats.Accesses + bound.Elided; sink.n != want {
		t.Errorf("capture sink saw %d accesses, want %d (%d delivered + %d elided)",
			sink.n, want, bound.RuntimeStats.Accesses, bound.Elided)
	}

	// Other lines than the manifest's: the built-in manifest stays unbound,
	// while an explicit manifest is refused as stale.
	h, rt = runtimeOn(t, 128)
	res, err = harness.ExecuteSimOnHeap(w, smallOpts(harness.ModePredict, nil), h, rt)
	if elided(t, res, err) != 0 {
		t.Errorf("128-byte lines: elided %d accesses", res.Elided)
	}
	explicit := &elide.Manifest{Version: elide.Version, LineSize: 64}
	h, rt = runtimeOn(t, 128)
	if _, err := harness.ExecuteSimOnHeap(w, smallOpts(harness.ModePredict, explicit), h, rt); err == nil {
		t.Error("explicit 64-byte manifest bound to a 128-byte-line heap")
	}

	res, err = harness.Execute(w, smallOpts(harness.ModePredict, harness.ElideOff))
	if elided(t, res, err) != 0 {
		t.Errorf("ElideOff: elided %d accesses", res.Elided)
	}
}

// Workers that wait for each other's Go mutexes finish under the
// deterministic scheduler: true_share holds one mutex across its accesses,
// and 16 boost workers share pool locks. A waiting worker hands on the turn
// instead of blocking while it holds it.
func TestDeterministicLockingWorkloadsFinish(t *testing.T) {
	for _, c := range []struct {
		name    string
		threads int
	}{{"true_share", 2}, {"boost", 16}} {
		w, ok := harness.Get(c.name)
		if !ok {
			t.Fatalf("%s not registered", c.name)
		}
		opts := smallOpts(harness.ModePredict, nil)
		opts.Threads = c.threads
		done := make(chan error, 1)
		go func() {
			_, err := harness.Execute(w, opts)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s with %d threads did not finish in a minute under the deterministic scheduler", c.name, c.threads)
		}
	}
}

// TestElisionKeepsFindings is the safety contract over every registered
// workload: a deterministic run reports the same findings with the built-in
// manifest bound as with elision off.
func TestElisionKeepsFindings(t *testing.T) {
	elidedAny := 0
	for _, w := range harness.All() {
		off, err := harness.Execute(w, smallOpts(harness.ModePredict, harness.ElideOff))
		if err != nil {
			t.Fatalf("%s, elision off: %v", w.Name(), err)
		}
		on, err := harness.Execute(w, smallOpts(harness.ModePredict, nil))
		if err != nil {
			t.Fatalf("%s, built-in manifest: %v", w.Name(), err)
		}
		if on.Elided > 0 {
			elidedAny++
		}
		if a, b := findings(off), findings(on); a != b {
			t.Errorf("%s: findings differ with elision\noff: %s\non:  %s", w.Name(), a, b)
		}
		so, sn := off.RuntimeStats, on.RuntimeStats
		if so.Invalidations != sn.Invalidations || so.VirtualInvalidations != sn.VirtualInvalidations {
			t.Errorf("%s: invalidations %d/%d off, %d/%d on", w.Name(),
				so.Invalidations, so.VirtualInvalidations, sn.Invalidations, sn.VirtualInvalidations)
		}
	}
	if elidedAny == 0 {
		t.Error("the built-in manifest elided nothing on any workload")
	}
}

// findings renders a report's findings without their provenance (which
// names run-specific spans and clock ticks).
func findings(res *harness.Result) string {
	s := fmt.Sprintf("%+v", res.Report.Counts())
	for _, f := range res.Report.Findings {
		s += fmt.Sprintf(" [%v %v %#x-%#x acc=%d r=%d w=%d inv=%d est=%d]",
			f.Source, f.Sharing, f.Span.Start, f.Span.End,
			f.Accesses, f.Reads, f.Writes, f.Invalidations, f.Estimate)
	}
	return s
}
