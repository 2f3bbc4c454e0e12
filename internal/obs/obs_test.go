package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
	o.Emit(Event{Type: EvAlloc})
	if o.Tracing() {
		t.Error("nil observer claims tracing")
	}
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

func TestObserverSequencesEvents(t *testing.T) {
	var got []Event
	o := New(NewRegistry(), FuncSink(func(e Event) { got = append(got, e) }))
	if !o.Tracing() {
		t.Fatal("observer with sink not tracing")
	}
	o.Emit(Event{Type: EvAlloc, Addr: 0x40, Size: 64})
	o.Emit(Event{Type: EvFree, Addr: 0x40})
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("events = %+v", got)
	}
	if got[0].Time == 0 {
		t.Error("event not timestamped")
	}
	if n := o.Metrics().Counter("predator_sink_events_total", "").Value(); n != 2 {
		t.Errorf("sink events counter = %d, want 2", n)
	}
}

func TestJSONLinesSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLines(&buf)
	o := New(nil, s)
	o.Emit(Event{Type: EvTrackPromoted, Line: 3, Addr: 0x4000000c0, Count: 100})
	o.Emit(Event{Type: EvVirtualLine, Start: 0x400000080, End: 0x400000100, Kind: "doubled cache line size"})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"type":"track_promoted"`) || !strings.Contains(lines[0], `"count":100`) {
		t.Errorf("line 0 = %s", lines[0])
	}
	if !strings.Contains(lines[1], `"type":"virtual_line"`) {
		t.Errorf("line 1 = %s", lines[1])
	}
	if s.Events() != 2 {
		t.Errorf("Events() = %d", s.Events())
	}
}

// TestConcurrentSinkDelivery exercises concurrent emission into the JSONL
// sink, a MultiSink fan-out, and shared instruments — the `go test -race`
// coverage of concurrent delivery the subsystem promises. The JSONL output
// must list every event once, in strictly increasing Seq order.
func TestConcurrentSinkDelivery(t *testing.T) {
	var buf bytes.Buffer
	js := NewJSONLines(&buf)
	var fnCount Counter
	reg := NewRegistry()
	o := New(reg, MultiSink{js, FuncSink(func(Event) { fnCount.Inc() })})
	c := reg.Counter("predator_accesses_total", "")
	h := reg.Histogram("predator_access_seconds", "", []float64{1e-6, 1e-3})
	g := reg.Gauge("predator_tracked_lines", "")

	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) * 1e-7)
				o.Emit(Event{Type: EvInvalidation, TID: id, Line: uint64(i)})
			}
		}(w)
	}
	wg.Wait()
	const total = workers * perWorker
	if err := js.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Value() != total || h.Count() != total || g.Value() != total {
		t.Errorf("instruments: c=%d h=%d g=%d, want %d", c.Value(), h.Count(), g.Value(), total)
	}
	if js.Events() != total || fnCount.Value() != total {
		t.Errorf("sinks: jsonl=%d fn=%d, want %d", js.Events(), fnCount.Value(), total)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != total {
		t.Errorf("jsonl lines = %d, want %d", len(lines), total)
	}
	var last uint64
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		if e.Seq <= last {
			t.Fatalf("seq %d written after seq %d", e.Seq, last)
		}
		last = e.Seq
	}
	// Concurrent snapshotting while quiescent must see consistent totals.
	snap := reg.Snapshot()
	if snap["predator_accesses_total"] != total {
		t.Errorf("snapshot = %v", snap["predator_accesses_total"])
	}
}

// TestEmitSerializesSlowSink checks the delivery contract the Sink doc
// states: a sink that yields mid-delivery, as one waiting on I/O would, is
// still called one event at a time and in Seq order, and the workers that
// emit meanwhile wait for it rather than reaching it concurrently.
func TestEmitSerializesSlowSink(t *testing.T) {
	var inFlight, overlaps atomic.Int32
	var seqs []uint64 // written only inside delivery, which is serialized
	o := New(NewRegistry(), FuncSink(func(e Event) {
		if inFlight.Add(1) != 1 {
			overlaps.Add(1)
		}
		seqs = append(seqs, e.Seq)
		runtime.Gosched()
		inFlight.Add(-1)
	}))
	const workers, perWorker = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				o.Emit(Event{Type: EvInvalidation})
			}
		}()
	}
	wg.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d deliveries overlapped another", n)
	}
	if len(seqs) != workers*perWorker {
		t.Fatalf("delivered %d events, want %d", len(seqs), workers*perWorker)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("delivery %d carried seq %d, want %d", i, s, i+1)
		}
	}
}

func TestHeartbeat(t *testing.T) {
	var mu sync.Mutex
	var beats []Event
	reg := NewRegistry()
	reg.Counter("predator_accesses_total", "").Add(9)
	o := New(reg, FuncSink(func(e Event) {
		mu.Lock()
		beats = append(beats, e)
		mu.Unlock()
	}))
	path := t.TempDir() + "/hb.prom"
	hb := StartHeartbeat(o, time.Millisecond, path)
	time.Sleep(20 * time.Millisecond)
	hb.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(beats) == 0 {
		t.Fatal("no heartbeats")
	}
	last := beats[len(beats)-1]
	if last.Type != EvHeartbeat || last.Metrics["predator_accesses_total"] != 9 {
		t.Errorf("last beat = %+v", last)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("snapshot file: %v", err)
	}
}
