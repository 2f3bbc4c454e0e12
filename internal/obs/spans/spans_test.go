package spans

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x", nil)
	if s != nil {
		t.Fatal("nil tracer minted a span")
	}
	// Every span method must absorb the nil receiver.
	s.SetAttr("a", 1)
	s.AddAttr("a", 1)
	s.SetLabel("k", "v")
	s.End()
	if c := s.Child("y"); c != nil {
		t.Fatal("nil span minted a child")
	}
	if d := s.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer snapshot non-nil")
	}
	if tr.Dropped() != 0 {
		t.Fatal("nil tracer dropped non-zero")
	}
}

func TestSnapshotOrderAndParentLinks(t *testing.T) {
	tr := New(Config{})
	root := tr.Start("run", nil)
	setup := root.Child("setup")
	setup.SetAttr("heap_bytes", 64)
	setup.End()
	work := root.Child("workload")
	predict := work.Child("predict.search")
	predict.End()
	work.End()
	root.End()

	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d spans, want 4", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].StartTick <= snap[i-1].StartTick {
			t.Fatalf("snapshot not in start-tick order: %v", snap)
		}
	}
	byID := map[string]Data{}
	for _, d := range snap {
		byID[d.SpanID] = d
	}
	for _, d := range snap {
		if d.Parent == "" {
			if d.Name != "run" {
				t.Fatalf("unexpected root %q", d.Name)
			}
			continue
		}
		if _, ok := byID[d.Parent]; !ok {
			t.Fatalf("span %q has dangling parent %s", d.Name, d.Parent)
		}
	}
	if byID[snap[1].SpanID].Parent != root.ID().String() {
		t.Fatalf("setup span not parented under root")
	}
	if d := byID[snap[1].SpanID]; d.Attrs["heap_bytes"] != 64 {
		t.Fatalf("attr lost: %v", d.Attrs)
	}
	for _, d := range snap {
		if d.EndTick <= d.StartTick {
			t.Fatalf("span %q has non-advancing ticks %d..%d", d.Name, d.StartTick, d.EndTick)
		}
		if d.EndMonoNano < d.StartMonoNano {
			t.Fatalf("span %q has negative mono duration", d.Name)
		}
	}
}

// Duration is 0 until End, then the monotonic duration the snapshot
// exports.
func TestDurationMatchesSnapshot(t *testing.T) {
	tr := New(Config{})
	s := tr.Start("x", nil)
	if d := s.Duration(); d != 0 {
		t.Fatalf("duration before End = %v, want 0", d)
	}
	s.End()
	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d spans, want 1", len(snap))
	}
	if got, want := s.Duration(), snap[0].Duration(); got != want || got < 0 {
		t.Fatalf("duration = %v, snapshot says %v", got, want)
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	tr := New(Config{})
	s := tr.Start("x", nil)
	s.End()
	s.End()
	if got := len(tr.Snapshot()); got != 1 {
		t.Fatalf("double End published %d spans, want 1", got)
	}
}

func TestBoundedBufferDropsOldest(t *testing.T) {
	tr := New(Config{})
	const extra = 6
	for i := 0; i < DefaultCapacity+extra; i++ {
		tr.Start(fmt.Sprintf("s%d", i), nil).End()
	}
	snap := tr.Snapshot()
	if len(snap) != DefaultCapacity {
		t.Fatalf("buffer held %d spans, want %d", len(snap), DefaultCapacity)
	}
	if tr.Dropped() != extra {
		t.Fatalf("dropped = %d, want %d", tr.Dropped(), extra)
	}
	// The survivors are the newest DefaultCapacity.
	if first, last := fmt.Sprintf("s%d", extra), fmt.Sprintf("s%d", DefaultCapacity+extra-1); snap[0].Name != first || snap[len(snap)-1].Name != last {
		t.Fatalf("survivors run %s..%s, want %s..%s", snap[0].Name, snap[len(snap)-1].Name, first, last)
	}
}

func TestConcurrentPublish(t *testing.T) {
	tr := New(Config{})
	const workers, per = 8, DefaultCapacity/8 + 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s := tr.Start("worker", nil)
				s.AddAttr("i", uint64(i))
				s.End()
			}
		}(g)
	}
	wg.Wait()
	snap := tr.Snapshot()
	if len(snap) != DefaultCapacity {
		t.Fatalf("snapshot has %d spans, want full buffer of %d", len(snap), DefaultCapacity)
	}
	if got := tr.Dropped(); got != workers*per-DefaultCapacity {
		t.Fatalf("dropped = %d, want %d", got, workers*per-DefaultCapacity)
	}
}

func TestDeterministicIDs(t *testing.T) {
	a := New(Config{Deterministic: true, Seed: 7})
	b := New(Config{Deterministic: true, Seed: 7})
	if a.TraceID() != b.TraceID() {
		t.Fatal("deterministic tracers minted different trace IDs")
	}
	sa := a.Start("x", nil)
	sb := b.Start("x", nil)
	if sa.ID() != sb.ID() {
		t.Fatal("deterministic tracers minted different span IDs")
	}
	c := New(Config{})
	if c.TraceID() == a.TraceID() {
		t.Fatal("non-deterministic tracer collided with the seeded one")
	}
}

func TestSignatureStableAcrossIDsAndTimes(t *testing.T) {
	build := func(det bool, seed uint64) string {
		tr := New(Config{Deterministic: det, Seed: seed})
		root := tr.Start("run", nil)
		root.SetLabel("workload", "histogram")
		w := root.Child("workload")
		w.SetAttr("accesses", 1000)
		p := w.Child("predict.search")
		p.SetAttr("pairs", 3)
		p.End()
		w.End()
		rep := root.Child("report")
		rep.SetAttr("findings", 2)
		rep.End()
		root.End()
		return Signature(tr.Snapshot())
	}
	sig1 := build(true, 1)
	sig2 := build(true, 99) // different IDs, same structure
	sig3 := build(false, 0) // random IDs, different wall times, same structure
	if sig1 != sig2 || sig1 != sig3 {
		t.Fatalf("signatures differ:\n%s\nvs\n%s\nvs\n%s", sig1, sig2, sig3)
	}
	if !strings.Contains(sig1, "predict.search pairs=3") {
		t.Fatalf("signature missing attrs:\n%s", sig1)
	}
	if !strings.Contains(sig1, "run workload=histogram") {
		t.Fatalf("signature missing labels:\n%s", sig1)
	}
	// Structure changes must change the signature.
	tr := New(Config{})
	root := tr.Start("run", nil)
	root.SetLabel("workload", "histogram")
	root.End()
	if Signature(tr.Snapshot()) == sig1 {
		t.Fatal("signature blind to structure")
	}
}

func TestWriteOTLPSchema(t *testing.T) {
	tr := New(Config{})
	root := tr.Start("run", nil)
	root.SetLabel("workload", "histogram")
	child := root.Child("report")
	child.SetAttr("findings", 2)
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteOTLP(&buf, "predator", tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue string `json:"stringValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string `json:"traceId"`
					SpanID       string `json:"spanId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
					Start        string `json:"startTimeUnixNano"`
					End          string `json:"endTimeUnixNano"`
					Attributes   []struct {
						Key   string `json:"key"`
						Value struct {
							StringValue string `json:"stringValue"`
							IntValue    string `json:"intValue"`
						} `json:"value"`
					} `json:"attributes"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.ResourceSpans) != 1 || len(doc.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("unexpected document shape: %s", buf.String())
	}
	if doc.ResourceSpans[0].Resource.Attributes[0].Key != "service.name" ||
		doc.ResourceSpans[0].Resource.Attributes[0].Value.StringValue != "predator" {
		t.Fatalf("missing service.name resource attribute: %s", buf.String())
	}
	sp := doc.ResourceSpans[0].ScopeSpans[0].Spans
	if len(sp) != 2 {
		t.Fatalf("exported %d spans, want 2", len(sp))
	}
	hex32 := regexp.MustCompile(`^[0-9a-f]{32}$`)
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, s := range sp {
		if !hex32.MatchString(s.TraceID) || !hex16.MatchString(s.SpanID) {
			t.Fatalf("bad IDs in %+v", s)
		}
		if s.Start == "" || s.End == "" {
			t.Fatalf("missing timestamps in %+v", s)
		}
	}
	var foundAttr bool
	for _, s := range sp {
		if s.Name != "report" {
			continue
		}
		if s.ParentSpanID != root.ID().String() {
			t.Fatalf("report parent %q, want %q", s.ParentSpanID, root.ID())
		}
		for _, a := range s.Attributes {
			if a.Key == "findings" && a.Value.IntValue == "2" {
				foundAttr = true
			}
		}
	}
	if !foundAttr {
		t.Fatal("findings attribute not exported as intValue")
	}
}
