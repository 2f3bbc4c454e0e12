package instr

import (
	"testing"

	"predator/internal/mem"
	"predator/internal/obs"
)

// rangeElider elides reads (and optionally writes) inside [lo, hi).
type rangeElider struct {
	lo, hi    uint64
	andWrites bool
}

func (e *rangeElider) Elidable(addr, size uint64, isWrite bool) bool {
	if addr < e.lo || addr+size > e.hi {
		return false
	}
	return !isWrite || e.andWrites
}

func TestElisionDropsBeforeDelivery(t *testing.T) {
	in, rec, addr := setup(t, Policy{})
	in.SetElision(&rangeElider{lo: addr, hi: addr + 128})
	th := in.NewThread("w")

	th.Store64(addr, 7) // write: not covered (reads only)
	if v := th.Load64(addr); v != 7 {
		t.Fatalf("elided load returned %d, want 7 (memory access must still happen)", v)
	}
	th.Load64(addr + 200) // outside range: delivered

	if got := in.Elided(); got != 1 {
		t.Errorf("Elided = %d, want 1", got)
	}
	if len(rec.events) != 2 {
		t.Fatalf("delivered %d events, want 2 (write + out-of-range read)", len(rec.events))
	}
	if !rec.events[0].isWrite || rec.events[1].addr != addr+200 {
		t.Errorf("wrong events delivered: %+v", rec.events)
	}
}

func TestElisionModeAllDropsWrites(t *testing.T) {
	in, rec, addr := setup(t, Policy{})
	in.SetElision(&rangeElider{lo: addr, hi: addr + 128, andWrites: true})
	th := in.NewThread("w")
	th.Store64(addr, 1)
	th.Load64(addr)
	if in.Elided() != 2 || len(rec.events) != 0 {
		t.Errorf("elided=%d delivered=%d, want 2, 0", in.Elided(), len(rec.events))
	}
}

func TestElisionBeforePolicyAndDedup(t *testing.T) {
	// An elided event must count as elided, not suppressed, even when policy
	// or dedup would also have dropped it.
	in, _, addr := setup(t, Policy{WritesOnly: true, DedupWindow: 8})
	in.SetElision(&rangeElider{lo: addr, hi: addr + 128})
	th := in.NewThread("w")
	th.Load64(addr)
	th.Load64(addr)
	if in.Elided() != 2 {
		t.Errorf("Elided = %d, want 2", in.Elided())
	}
	if in.Suppressed() != 0 {
		t.Errorf("Suppressed = %d, want 0 (elision wins)", in.Suppressed())
	}
}

func TestElisionMetrics(t *testing.T) {
	h, err := mem.NewHeap(mem.Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	in := New(h, rec, Policy{})
	o := obs.New(obs.NewRegistry(), nil)
	in.Observe(o)
	addr, err := h.Alloc(0, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	in.SetElision(&rangeElider{lo: addr, hi: addr + 128})
	th := in.NewThread("w")
	for i := 0; i < 10; i++ {
		th.Load64(addr)
	}
	in.FlushMetrics()
	c := o.Metrics().Counter("predator_events_elided_total", "")
	if c.Value() != 10 {
		t.Errorf("registry elided counter = %d, want 10", c.Value())
	}
}

func TestSetElisionNilUninstalls(t *testing.T) {
	in, rec, addr := setup(t, Policy{})
	in.SetElision(&rangeElider{lo: addr, hi: addr + 128})
	in.SetElision(nil)
	th := in.NewThread("w")
	th.Load64(addr)
	if in.Elided() != 0 || len(rec.events) != 1 {
		t.Errorf("elided=%d delivered=%d after uninstall, want 0, 1", in.Elided(), len(rec.events))
	}
}

// TestElidedCountPerThread: concurrent threads count elided accesses in
// their own state and publish in batches. Mid-run the registry lags by less
// than obs.SyncBatch per thread; once the workers have joined, Elided and
// the registry counter are exact.
func TestElidedCountPerThread(t *testing.T) {
	h, err := mem.NewHeap(mem.Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	in := New(h, &recorder{}, Policy{})
	o := obs.New(obs.NewRegistry(), nil)
	in.Observe(o)
	addr, err := h.Alloc(0, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	in.SetElision(&rangeElider{lo: addr, hi: addr + 128})
	c := o.Metrics().Counter("predator_events_elided_total", "")

	const workers, perWorker = 4, 3*obs.SyncBatch + 17
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		th := in.NewThread("w")
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < perWorker; i++ {
				th.Load64(addr)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	const want = workers * perWorker
	if got := c.Value(); got > want || want-got >= workers*obs.SyncBatch {
		t.Errorf("registry before flush = %d, want within %d below %d", got, workers*obs.SyncBatch, want)
	}
	if got := in.Elided(); got != want {
		t.Errorf("Elided = %d, want %d", got, want)
	}
	in.FlushMetrics()
	if got := c.Value(); got != want {
		t.Errorf("registry after flush = %d, want %d", got, want)
	}
	in.FlushMetrics()
	if got := c.Value(); got != want {
		t.Errorf("registry after a second flush = %d, want %d", got, want)
	}
}
