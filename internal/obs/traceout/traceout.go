// Package traceout renders flight-recorder dumps as Chrome trace-event JSON
// — the format ui.perfetto.dev and chrome://tracing load directly. The
// timeline shows the detection run the way the paper's Figure 1 pipeline
// describes it: one track per workload thread carrying its recorded accesses
// (invalidation-causing ones as standout marks), and one synthetic "detector
// phases" track carrying the whole-run workload bar plus a mark per line at
// the instant its invalidations crossed the report threshold and per virtual
// line at its registration and verification. Per-search and report timings
// are in the span trace (internal/obs/spans), not here.
//
// Timestamps are logical access-clock ticks, not wall time: the trace-event
// "ts" field is nominally microseconds, and one tick per microsecond renders
// fine while keeping timelines deterministic across runs of the
// deterministic workloads.
package traceout

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"predator/internal/core"
)

// Track layout: everything lives in one process (pid 1); workload threads
// keep their own tids and the detector-phase track sits far above any real
// thread id.
const (
	tracePID  = 1
	phasesTID = 1 << 20
)

// tevent is one trace event. Field names are the trace-event schema's.
type tevent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope: t(hread), p(rocess), g(lobal)
	Args map[string]any `json:"args,omitempty"`
}

// traceDoc is the JSON-object form of a trace (the form that carries
// metadata; Perfetto also accepts a bare event array).
type traceDoc struct {
	TraceEvents     []tevent       `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteTimeline renders the dump as trace-event JSON. threadNames, when
// non-nil, labels workload-thread tracks (falling back to "thread N"). The
// output is deterministic for a deterministic dump: events are emitted in
// dump order and metadata in sorted-tid order.
func WriteTimeline(w io.Writer, d *core.FlightDump, threadNames map[int]string) error {
	if d == nil {
		return fmt.Errorf("traceout: no flight dump (flight recording disabled?)")
	}
	doc := traceDoc{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"tool":      "predator",
			"clock":     d.Clock,
			"line_size": d.LineSize,
			"depth":     d.Depth,
		},
	}

	// Process + thread metadata. Collect every tid appearing in any record
	// so each gets a named track.
	tids := map[int]bool{}
	for _, l := range d.Lines {
		for _, r := range l.Records {
			tids[r.TID] = true
		}
	}
	for _, v := range d.Virtual {
		for _, r := range v.Records {
			tids[r.TID] = true
		}
	}
	sorted := make([]int, 0, len(tids))
	for tid := range tids {
		sorted = append(sorted, tid)
	}
	sort.Ints(sorted)
	doc.TraceEvents = append(doc.TraceEvents, tevent{
		Name: "process_name", Ph: "M", PID: tracePID,
		Args: map[string]any{"name": "predator detector"},
	})
	for _, tid := range sorted {
		name := threadNames[tid]
		if name == "" {
			name = fmt.Sprintf("thread %d", tid)
		}
		doc.TraceEvents = append(doc.TraceEvents, tevent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	doc.TraceEvents = append(doc.TraceEvents, tevent{
		Name: "thread_name", Ph: "M", PID: tracePID, TID: phasesTID,
		Args: map[string]any{"name": "detector phases"},
	})

	// The whole run as one bar, ticks 1 to the dump's clock; zero-width
	// bars vanish in the UI.
	if d.Clock > 0 {
		doc.TraceEvents = append(doc.TraceEvents, tevent{
			Name: "workload", Ph: "X", TS: 1, Dur: max(d.Clock-1, 1),
			PID: tracePID, TID: phasesTID, Args: map[string]any{"predator_phase": "workload"},
		})
	}

	// Recorded accesses: one instant per record on the accessing thread's
	// track; invalidation-causing accesses get their own standout name.
	for _, l := range d.Lines {
		for _, r := range l.Records {
			doc.TraceEvents = append(doc.TraceEvents, recordEvent(r.Clock, r.TID, r.Word, r.Write, r.Invalidation,
				map[string]any{"line": l.Line, "word": r.Word}))
		}
		if l.FlaggedClock > 0 {
			doc.TraceEvents = append(doc.TraceEvents, tevent{
				Name: fmt.Sprintf("line %d flagged", l.Line), Ph: "i",
				TS: l.FlaggedClock, PID: tracePID, TID: phasesTID, S: "p",
				Args: map[string]any{"line": l.Line, "invalidations": l.Invalidations, "window": l.Window},
			})
		}
	}
	for _, v := range d.Virtual {
		span := fmt.Sprintf("0x%x-0x%x", v.Start, v.End)
		for _, r := range v.Records {
			doc.TraceEvents = append(doc.TraceEvents, recordEvent(r.Clock, r.TID, r.Word, r.Write, r.Invalidation,
				map[string]any{"virtual": span, "kind": v.Kind, "word": r.Word}))
		}
		if v.RegClock > 0 {
			doc.TraceEvents = append(doc.TraceEvents, tevent{
				Name: "virtual line registered", Ph: "i",
				TS: v.RegClock, PID: tracePID, TID: phasesTID, S: "p",
				Args: map[string]any{"virtual": span, "kind": v.Kind},
			})
		}
		if v.FlaggedClock > 0 {
			doc.TraceEvents = append(doc.TraceEvents, tevent{
				Name: "virtual line verified", Ph: "i",
				TS: v.FlaggedClock, PID: tracePID, TID: phasesTID, S: "p",
				Args: map[string]any{"virtual": span, "kind": v.Kind, "invalidations": v.Invalidations},
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteTimelineFile renders the dump into a file (the CLIs' -timeline-out).
func WriteTimelineFile(path string, d *core.FlightDump, threadNames map[int]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTimeline(f, d, threadNames); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recordEvent shapes one recorded access as an instant event.
func recordEvent(ts uint64, tid, word int, write, invalidation bool, args map[string]any) tevent {
	name := "read"
	if write {
		name = "write"
	}
	if invalidation {
		name = "invalidation (" + name + ")"
	}
	return tevent{Name: name, Ph: "i", TS: ts, PID: tracePID, TID: tid, S: "t", Args: args}
}

// CountInstants returns how many invalidation instants a rendered dump would
// contain — the consistency hook tests and CI use to cross-check a timeline
// against a report's invalidation counts without parsing JSON.
func CountInstants(d *core.FlightDump) (accesses, invalidations int) {
	if d == nil {
		return 0, 0
	}
	for _, l := range d.Lines {
		accesses += len(l.Records)
		for _, r := range l.Records {
			if r.Invalidation {
				invalidations++
			}
		}
	}
	for _, v := range d.Virtual {
		accesses += len(v.Records)
		for _, r := range v.Records {
			if r.Invalidation {
				invalidations++
			}
		}
	}
	return accesses, invalidations
}
