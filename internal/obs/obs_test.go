package obs

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every instrument, registry, and observer method must no-op on nil:
	// this is the contract that lets the runtime hold unpopulated pointers.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil gauge value")
	}
	var h *Histogram
	h.Observe(1.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram state")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Error("nil registry returned non-nil instrument")
	}
	r.GaugeFunc("x", "", func() float64 { return 1 })
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
	var o *Observer
	if o.Metrics() != nil {
		t.Error("nil observer metrics")
	}
	StartHeartbeat(nil, 0, "").Stop() // nil heartbeat chain
}

func TestRegistryIdempotentAndConflict(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("predator_x_total", "first")
	b := r.Counter("predator_x_total", "second")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Error("shared counter not shared")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind conflict did not panic")
		}
	}()
	r.Gauge("predator_x_total", "conflict")
}

// Goroutines released together register the same names while a renderer
// runs: each name yields one instrument, and the race detector sees no
// unsynchronized instrument set-up.
func TestRegistryConcurrentFirstRegistration(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	counters := make([]*Counter, workers)
	hists := make([]*Histogram, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			counters[i] = r.Counter("predator_y_total", "")
			hists[i] = r.Histogram("predator_y_seconds", "", []float64{1})
			counters[i].Inc()
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		r.Snapshot()
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Error(err)
		}
	}()
	close(start)
	wg.Wait()
	for i := 1; i < workers; i++ {
		if counters[i] != counters[0] || hists[i] != hists[0] {
			t.Fatalf("goroutine %d got its own instrument", i)
		}
	}
	if v := counters[0].Value(); v != workers {
		t.Errorf("counter = %d, want %d", v, workers)
	}
}

func TestRegistryRejectsBadName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid name did not panic")
		}
	}()
	NewRegistry().Counter("bad name!", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("predator_lat_seconds", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 556.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	cum := h.snapshot()
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, cum[i], w)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("predator_accesses_total", "Accesses delivered.").Add(42)
	r.Gauge("predator_tracked_lines", "Lines under detailed tracking.").Set(7)
	r.Histogram("predator_access_seconds", "Access latency.", []float64{0.001, 0.1}).Observe(0.05)
	r.GaugeFunc("predator_sample_hit_ratio", "Recorded fraction.", func() float64 { return 0.25 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP predator_accesses_total Accesses delivered.",
		"# TYPE predator_accesses_total counter",
		"predator_accesses_total 42",
		"# TYPE predator_tracked_lines gauge",
		"predator_tracked_lines 7",
		"# TYPE predator_access_seconds histogram",
		`predator_access_seconds_bucket{le="0.001"} 0`,
		`predator_access_seconds_bucket{le="0.1"} 1`,
		`predator_access_seconds_bucket{le="+Inf"} 1`,
		"predator_access_seconds_sum 0.05",
		"predator_access_seconds_count 1",
		"predator_sample_hit_ratio 0.25",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("predator_runs_total", "").Inc()
	path := t.TempDir() + "/metrics.prom"
	if err := r.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite must succeed too (rename over existing).
	r.Counter("predator_runs_total", "").Inc()
	if err := r.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	// The snapshot gets the mode every other export file gets from
	// os.Create (0666 less the umask), not os.CreateTemp's 0600.
	plain, err := os.Create(filepath.Join(filepath.Dir(path), "plain"))
	if err != nil {
		t.Fatal(err)
	}
	plain.Close()
	want, err := os.Stat(plain.Name())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != want.Mode() {
		t.Errorf("snapshot mode = %v, want %v (as os.Create makes)", got.Mode(), want.Mode())
	}
}

// TestConcurrentSinkDelivery updates shared instruments from many
// goroutines — the `go test -race` coverage of concurrent metric updates the
// subsystem promises — and checks that the totals and a snapshot taken once
// the workers have joined are exact.
func TestConcurrentSinkDelivery(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("predator_accesses_total", "")
	h := reg.Histogram("predator_access_seconds", "", []float64{1e-6, 1e-3})
	g := reg.Gauge("predator_tracked_lines", "")

	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) * 1e-7)
			}
		}()
	}
	wg.Wait()
	const total = workers * perWorker
	if c.Value() != total || h.Count() != total || g.Value() != total {
		t.Errorf("instruments: c=%d h=%d g=%d, want %d", c.Value(), h.Count(), g.Value(), total)
	}
	snap := reg.Snapshot()
	if snap["predator_accesses_total"] != total || snap["predator_tracked_lines"] != total ||
		snap["predator_access_seconds_count"] != total {
		t.Errorf("snapshot = %v", snap)
	}
}

// TestHeartbeat checks that a running heartbeat rewrites the snapshot file
// before Stop: the file appears while the loop runs, not only at the final
// beat.
func TestHeartbeat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("predator_accesses_total", "").Add(9)
	path := t.TempDir() + "/hb.prom"
	hb := StartHeartbeat(reg, time.Millisecond, path)
	defer hb.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, err := os.ReadFile(path)
		if err == nil && strings.Contains(string(data), "predator_accesses_total 9") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no heartbeat snapshot within 5s (err=%v):\n%s", err, data)
		}
		time.Sleep(time.Millisecond)
	}
}
