package predator

import (
	"runtime"
	"sync"
	"testing"
)

// TestExactCountsFreeRunning: eight free-running workers on two Ps count
// their accesses in state only their own goroutine writes, so once they
// have joined, every count of the run agrees exactly: the runtime's
// accesses and writes, the front-end's delivered events, and the registry
// counters behind them.
func TestExactCountsFreeRunning(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	o := NewObserver()
	d, err := New(Options{HeapSize: 4 << 20, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	shared, err := d.Thread("main").AllocWithOffset(workers*8, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wantAccesses, wantWrites uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Counts that are not multiples of the publish batch leave every
		// thread an unpublished remainder.
		n := 2000 + 37*w
		wantAccesses += 2 * uint64(n)
		wantWrites += uint64(n)
		th := d.Thread("worker")
		private, err := th.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			word := shared + uint64(w)*8
			for i := 0; i < n; i++ {
				th.Store64(word, uint64(i))
				th.Load64(private)
			}
		}()
	}
	wg.Wait()

	st := d.Stats()
	snap := o.Metrics().Snapshot()
	counts := []struct {
		name      string
		got, want uint64
	}{
		{"Stats.Accesses", st.Accesses, wantAccesses},
		{"Stats.Delivered", st.Delivered, wantAccesses},
		{"predator_accesses_total", uint64(snap["predator_accesses_total"]), wantAccesses},
		{"predator_events_delivered_total", uint64(snap["predator_events_delivered_total"]), wantAccesses},
		{"Stats.Writes", st.Writes, wantWrites},
		{"predator_writes_total", uint64(snap["predator_writes_total"]), wantWrites},
	}
	for _, c := range counts {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestZeroByteAccessNotDelivered: a zero-length ReadBytes or WriteBytes
// touches no line, so the front-end drops it before delivery and its
// delivered count stays equal to the runtime's access count.
func TestZeroByteAccessNotDelivered(t *testing.T) {
	d, err := New(Options{HeapSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th := d.Thread("w")
	addr, err := th.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	th.Store64(addr, 1)
	th.ReadBytes(addr, nil)
	th.WriteBytes(addr+8, []byte{})
	th.ReadBytes(addr, make([]byte, 16))
	st := d.Stats()
	if st.Delivered != 2 || st.Accesses != 2 {
		t.Errorf("delivered = %d, accesses = %d, want 2 each", st.Delivered, st.Accesses)
	}
}
