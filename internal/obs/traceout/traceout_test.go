package traceout

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"predator/internal/core"
	"predator/internal/mem"
)

// driveFalseSharing runs the classic ping-pong pattern through a fresh
// runtime and returns it with its heap.
func driveFalseSharing(t *testing.T) *core.Runtime {
	t.Helper()
	h, err := mem.NewHeap(mem.Config{Size: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(h, core.Config{
		TrackingThreshold:   10,
		PredictionThreshold: 20,
		ReportThreshold:     50,
		Prediction:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := h.AllocWithOffset(0, 64, 0, 0)
	for i := 0; i < 500; i++ {
		rt.HandleAccess(1, addr, 8, true)
		rt.HandleAccess(2, addr+8, 8, true)
	}
	return rt
}

func TestWriteTimelineSchema(t *testing.T) {
	rt := driveFalseSharing(t)
	rep := rt.Report()
	if len(rep.Findings) == 0 {
		t.Fatal("workload produced no findings")
	}
	d := rt.FlightDump(0, -1)
	if d == nil {
		t.Fatal("flight recording should be on by default")
	}
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, d, map[int]string{1: "worker-1", 2: "worker-2"}); err != nil {
		t.Fatal(err)
	}

	// The output must be a trace-event JSON object: traceEvents array where
	// every event carries name+ph, instants carry ts >= 1, and the one X
	// span, the whole-run workload bar, carries dur >= 1.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var (
		instants, spans, meta int
		invMarks              int
		phaseNames            []string
		threadTracks          = map[string]bool{}
	)
	for _, e := range doc.TraceEvents {
		name, _ := e["name"].(string)
		ph, _ := e["ph"].(string)
		if name == "" || ph == "" {
			t.Fatalf("event missing name/ph: %v", e)
		}
		switch ph {
		case "M":
			meta++
			if name == "thread_name" {
				args := e["args"].(map[string]any)
				threadTracks[args["name"].(string)] = true
			}
		case "i":
			instants++
			if ts, _ := e["ts"].(float64); ts < 1 {
				t.Fatalf("instant with ts < 1: %v", e)
			}
			if strings.HasPrefix(name, "invalidation") {
				invMarks++
			}
		case "X":
			spans++
			if dur, _ := e["dur"].(float64); dur < 1 {
				t.Fatalf("span with dur < 1: %v", e)
			}
			phaseNames = append(phaseNames, name)
		default:
			t.Fatalf("unexpected ph %q: %v", ph, e)
		}
	}
	if meta < 3 { // process_name + >= 2 threads + phases track
		t.Errorf("metadata events = %d, want >= 3", meta)
	}
	if !threadTracks["worker-1"] || !threadTracks["worker-2"] {
		t.Errorf("named thread tracks missing: %v", threadTracks)
	}
	if !threadTracks["detector phases"] {
		t.Error("detector phases track missing")
	}
	if len(phaseNames) != 1 || phaseNames[0] != "workload" {
		t.Errorf("phase spans = %v, want one workload bar", phaseNames)
	}
	if instants == 0 {
		t.Fatal("no instant events")
	}
	// Invalidation marks in the trace equal the invalidation-flagged records
	// in the dump (plus zero non-record marks counted here), and both are
	// bounded above by the report's invalidation totals — the ring holds the
	// newest depth records, never more invalidations than really happened.
	_, wantInv := CountInstants(d)
	if invMarks != wantInv {
		t.Errorf("invalidation marks = %d, want %d", invMarks, wantInv)
	}
	var reported uint64
	for _, f := range rep.Findings {
		reported += f.Invalidations
	}
	if uint64(wantInv) > reported {
		t.Errorf("timeline has %d invalidation marks but report counts only %d invalidations", wantInv, reported)
	}
}

func TestWriteTimelineNilDump(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, nil, nil); err == nil {
		t.Fatal("nil dump must error")
	}
}

func TestWriteTimelineDeterministic(t *testing.T) {
	rt := driveFalseSharing(t)
	d := rt.FlightDump(0, -1)
	var a, b bytes.Buffer
	if err := WriteTimeline(&a, d, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteTimeline(&b, d, nil); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same dump must render identically")
	}
}

func TestFlightDisabled(t *testing.T) {
	h, err := mem.NewHeap(mem.Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(h, core.Config{
		TrackingThreshold: 10,
		FlightDepth:       core.FlightDisabled,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.FlightEnabled() {
		t.Fatal("flight should be disabled")
	}
	if d := rt.FlightDump(0, -1); d != nil {
		t.Fatal("FlightDump must be nil when disabled")
	}
}
