package predator_test

// Chaos suite: deterministic fault injection against the whole detector.
// Every test here asserts the resilience layer's core promise — the detector
// always terminates with a report, never panics, and accounts for the detail
// it shed. CI runs these under the race detector (go test -race -run Chaos).

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"predator"
	"predator/internal/core"
	"predator/internal/mem"
	"predator/internal/resilience/faultinject"
	"predator/internal/trace"
)

// chaosTrace records a deterministic false sharing trace: two threads
// ping-pong on one line, two more on another.
func chaosTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{
		HeapBase: mem.DefaultBase, HeapSize: 4 << 20, LineSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(mem.DefaultBase) + 64
	w.WriteEvent(trace.Event{Op: trace.OpThread, TID: 0, Name: "a"})
	w.WriteEvent(trace.Event{Op: trace.OpThread, TID: 1, Name: "b"})
	w.WriteEvent(trace.Event{Op: trace.OpAlloc, TID: 0, Addr: base, Size: 128})
	for i := 0; i < 400; i++ {
		w.WriteEvent(trace.Event{Op: trace.OpWrite, TID: 0, Addr: base, Size: 8})
		w.WriteEvent(trace.Event{Op: trace.OpWrite, TID: 1, Addr: base + 8, Size: 8})
		w.WriteEvent(trace.Event{Op: trace.OpWrite, TID: 2, Addr: base + 64, Size: 8})
		w.WriteEvent(trace.Event{Op: trace.OpWrite, TID: 3, Addr: base + 72, Size: 8})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func chaosConfig() core.Config {
	return core.Config{
		TrackingThreshold:   10,
		PredictionThreshold: 20,
		ReportThreshold:     50,
	}
}

// TestChaosCorruptTraceAlwaysReplays injects seeded random corruption and
// truncation into a recorded trace and requires the salvage replay to
// terminate with a report and honest salvage accounting, for every seed.
func TestChaosCorruptTraceAlwaysReplays(t *testing.T) {
	raw := chaosTrace(t)
	for seed := int64(1); seed <= 8; seed++ {
		inj := faultinject.New(seed)
		corrupted, faults := inj.Corrupt(raw, 28, 30)
		res, err := trace.ReplayWithOptions(bytes.NewReader(corrupted), chaosConfig(),
			trace.ReplayOptions{Salvage: true})
		if err != nil {
			t.Fatalf("seed %d: salvage replay failed: %v", seed, err)
		}
		if res.Report == nil {
			t.Fatalf("seed %d: no report", seed)
		}
		if res.Salvage == nil {
			t.Fatalf("seed %d: no salvage stats", seed)
		}
		// Adjacent faults merge into one region and some corruptions land
		// on don't-care bytes, but regions can never exceed injected
		// faults, and a 30-fault barrage cannot leave the trace clean.
		if res.Salvage.CorruptRegions > uint64(len(faults)) {
			t.Errorf("seed %d: %d corrupt regions from %d faults",
				seed, res.Salvage.CorruptRegions, len(faults))
		}

		// Truncation on top of corruption must still terminate.
		cut, at := inj.Truncate(corrupted, 28)
		res, err = trace.ReplayWithOptions(bytes.NewReader(cut), chaosConfig(),
			trace.ReplayOptions{Salvage: true})
		if err != nil {
			t.Fatalf("seed %d: truncated (at %d) salvage replay failed: %v", seed, at, err)
		}
		if res.Report == nil {
			t.Fatalf("seed %d: truncated replay lost its report", seed)
		}
	}
}

// TestChaosHookQuarantineUnderDetection registers an always-panicking alloc
// hook on the heap of a concurrent detection run whose workers allocate as
// they store. The panics must be absorbed, the hook quarantined, and the
// report unaffected.
func TestChaosHookQuarantineUnderDetection(t *testing.T) {
	cfg := predator.DefaultRuntimeConfig()
	cfg.TrackingThreshold = 10
	cfg.ReportThreshold = 50
	cfg.SampleWindow = 0
	d, err := predator.New(predator.Options{Runtime: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	d.Heap().AddAllocHook(func(mem.Object) { panic("injected hook panic") })
	t0 := d.Thread("setup")
	addr, err := t0.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := d.Thread("worker")
			for i := 0; i < 2000; i++ {
				if i%100 == 0 {
					if _, err := th.Alloc(16); err != nil {
						t.Error(err)
						return
					}
				}
				th.Store64(addr+uint64(g*8), uint64(i))
			}
		}(g)
	}
	wg.Wait()
	// Goroutine scheduling may serialize the workers; a deterministic
	// ping-pong guarantees the invalidations a finding needs.
	pa, pb := d.Thread("ping"), d.Thread("pong")
	for i := 0; i < 200; i++ {
		pa.Store64(addr, uint64(i))
		pb.Store64(addr+8, uint64(i))
	}

	if panics, quarantined := d.Heap().HookPanics(); quarantined != 1 {
		t.Fatalf("HookPanics = %d panics, %d quarantined hooks; want 1 quarantined", panics, quarantined)
	}
	rep := d.Report()
	if len(rep.FalseSharing()) == 0 {
		t.Error("false sharing lost while the alloc hook was panicking")
	}
}

// TestChaosAllocExhaustion exhausts a tiny heap and requires a typed error,
// not a crash, with detection still functional afterwards.
func TestChaosAllocExhaustion(t *testing.T) {
	d, err := predator.New(predator.Options{HeapSize: faultinject.TinyHeapBytes})
	if err != nil {
		t.Fatal(err)
	}
	th := d.Thread("greedy")
	var failed error
	for i := 0; i < 1<<12; i++ {
		if _, err := th.Alloc(256); err != nil {
			failed = err
			break
		}
	}
	if failed == nil {
		t.Fatal("tiny heap never exhausted")
	}
	if !errors.Is(failed, mem.ErrOutOfMemory) {
		t.Errorf("exhaustion error = %v, want mem.ErrOutOfMemory", failed)
	}
	if rep := d.Report(); rep == nil {
		t.Error("no report after exhaustion")
	}
}

// TestChaosNonStrictOutOfHeapStorm drives a concurrent mix of valid and
// wild accesses through a fault-tolerant detector: every wild access must be
// absorbed and counted, never panic.
func TestChaosNonStrictOutOfHeapStorm(t *testing.T) {
	lenient := false
	d, err := predator.New(predator.Options{Strict: &lenient})
	if err != nil {
		t.Fatal(err)
	}
	t0 := d.Thread("setup")
	addr, err := t0.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := d.Thread("wild")
			inj := faultinject.New(int64(g))
			for i := 0; i < 1000; i++ {
				if inj.Rand().Intn(2) == 0 {
					th.Store64(addr+uint64(g*8), uint64(i))
				} else {
					th.Load64(uint64(inj.Rand().Intn(1 << 20))) // far outside the heap
				}
			}
		}(g)
	}
	wg.Wait()
	if d.Stats().Faults == 0 {
		t.Error("no faults recorded despite out-of-heap storm")
	}
	if rep := d.Report(); rep == nil {
		t.Error("no report after fault storm")
	}
}
