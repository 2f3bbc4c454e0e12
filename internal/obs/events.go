package obs

import (
	"sync"
	"time"

	"predator/internal/obs/spans"
)

// Type discriminates lifecycle events. Values are stable strings: they are
// the "type" field of the JSON-lines export and part of the telemetry schema
// (see README "Observability").
type Type string

// Lifecycle event types, each mapped to the paper mechanism that motivates
// it (see DESIGN.md "Observability").
const (
	// EvThread: an instrumented thread handle was minted.
	EvThread Type = "thread"
	// EvAlloc: a heap object (or global, Global=true) was created.
	EvAlloc Type = "alloc"
	// EvFree: a heap object was freed and recycled.
	EvFree Type = "free"
	// EvTrackPromoted: a line crossed the TrackingThreshold and detailed
	// tracking was installed (paper §2.4.1).
	EvTrackPromoted Type = "track_promoted"
	// EvSampleWindow: a tracked line's sampling window opened (recording
	// burst began) or closed (burst exhausted, §2.4.3). Phase is
	// "open"/"close"; Count is the line's access ordinal.
	EvSampleWindow Type = "sample_window"
	// EvInvalidation: a recorded access invalidated a tracked line
	// (Virtual=false) or virtual lines (Virtual=true, Count = how many).
	EvInvalidation Type = "invalidation"
	// EvHotPair: the hot-pair search found a candidate pair (§3.3).
	// Count is the conservative invalidation estimate.
	EvHotPair Type = "hot_pair"
	// EvVirtualLine: a virtual line was registered for verification
	// (§3.4). Start/End delimit the span; Kind names the prediction.
	EvVirtualLine Type = "virtual_line"
	// EvVerification: a virtual line's verification outcome at report
	// time. Phase is "verified"/"rejected"; Count is verified
	// invalidations.
	EvVerification Type = "verification"
	// EvReport: a report was produced. Count is the finding count.
	EvReport Type = "report"
	// EvHeartbeat: periodic liveness snapshot; Metrics carries the
	// registry's scalar values.
	EvHeartbeat Type = "heartbeat"
	// EvDegradation: the resource governor shed detection detail. Phase
	// says what degraded: "evict" (a cold tracked line fell back to
	// invalidation-counting-only to admit a new one), "degrade_new" (a
	// freshly promoted line entered tracking already degraded because every
	// other line is report-worthy), or "virtual_reject" (a virtual line was
	// refused by the MaxVirtualLines budget).
	EvDegradation Type = "degradation"
	// EvSinkQuarantined: an observer sink exceeded its panic budget and was
	// quarantined; Name identifies the sink, Count its absorbed panics.
	// This is the final event a quarantined sink receives.
	EvSinkQuarantined Type = "sink_quarantined"
	// EvFault: a non-strict instrumentation front-end absorbed an
	// out-of-heap access instead of panicking. Addr/Size locate the fault;
	// TID is the faulting thread.
	EvFault Type = "fault"
)

// Event is one lifecycle record. It is a flat struct so hot-path emission
// performs no allocation beyond what the sink itself does; unused fields
// stay zero and are omitted from the JSON encoding.
type Event struct {
	Seq  uint64 `json:"seq"`
	Time int64  `json:"t_ns,omitempty"` // wall clock, UnixNano
	Type Type   `json:"type"`

	TID     int                `json:"tid,omitempty"`
	Addr    uint64             `json:"addr,omitempty"`
	Size    uint64             `json:"size,omitempty"`
	Line    uint64             `json:"line,omitempty"`  // dense line index
	Start   uint64             `json:"start,omitempty"` // span start (virtual lines)
	End     uint64             `json:"end,omitempty"`   // span end (exclusive)
	Count   uint64             `json:"count,omitempty"`
	Phase   string             `json:"phase,omitempty"`
	Kind    string             `json:"kind,omitempty"`
	Name    string             `json:"name,omitempty"`
	Global  bool               `json:"global,omitempty"`
	Virtual bool               `json:"virtual,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Sink receives lifecycle events. An Observer delivers them one at a time in
// Seq order, so a sink attached to one observer must not call back into that
// observer's Emit. Implementations must still be safe for concurrent use:
// a sink may be shared, and is called from every worker thread.
type Sink interface {
	Emit(Event)
}

// FuncSink adapts a function to the Sink interface.
type FuncSink func(Event)

// Emit calls the function.
func (f FuncSink) Emit(e Event) { f(e) }

// MultiSink fans one event out to several sinks in order.
type MultiSink []Sink

// Emit forwards to every sink.
func (m MultiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Observer bundles the two observability layers handed to the runtime: a
// metrics registry and an event sink. Either may be nil. A nil *Observer is
// the no-op default — every method is safe on it — so the runtime carries
// one pointer and pays a single nil check on instrumented paths.
type Observer struct {
	reg     *Registry
	sink    Sink
	emitMu  sync.Mutex // orders delivery: Seq is assigned and delivered under it
	seq     uint64     // guarded by emitMu
	emitted *Counter
	self    *SelfProfiler // nil unless EnableSelfProfile was called
	spans   *spans.Tracer // nil unless SetSpans was called
}

// New builds an Observer over a registry and an event sink (either or both
// may be nil). When both a registry and a sink are present, the observer
// self-registers predator_sink_events_total counting delivered events.
func New(reg *Registry, sink Sink) *Observer {
	o := &Observer{reg: reg, sink: sink}
	if sink != nil {
		o.emitted = reg.Counter("predator_sink_events_total",
			"Lifecycle events delivered to the attached sink.")
	}
	return o
}

// EnableSelfProfile attaches a runtime self-profiler to the observer:
// sampled track-path latency, the raw-vs-instrumented overhead meter, and Go
// runtime health gauges, all registered on the observer's registry. Call
// before the observer is handed to a runtime (the runtime captures the
// profiler at construction); calling again returns the existing profiler.
// Nil-safe: a nil observer (or one without a registry) returns nil.
func (o *Observer) EnableSelfProfile() *SelfProfiler {
	if o == nil || o.reg == nil {
		return nil
	}
	if o.self == nil {
		o.self = NewSelfProfiler(o.reg)
	}
	return o.self
}

// Self returns the observer's self-profiler, or nil when self-profiling was
// never enabled (the default). Nil-safe.
func (o *Observer) Self() *SelfProfiler {
	if o == nil {
		return nil
	}
	return o.self
}

// SetSpans attaches a span tracer: pipeline phases instrumented for span
// tracing (harness setup, workload execution, prediction searches, report
// generation, replay) start spans on it. Call before the observer is handed
// to a runtime. Nil-safe: a nil observer ignores the call, and a nil tracer
// detaches.
func (o *Observer) SetSpans(t *spans.Tracer) {
	if o == nil {
		return
	}
	o.spans = t
}

// Spans returns the attached span tracer, or nil when span tracing is off
// (the default). All spans.Tracer methods absorb a nil receiver, so callers
// chain o.Spans().Start(...) without guarding.
func (o *Observer) Spans() *spans.Tracer {
	if o == nil {
		return nil
	}
	return o.spans
}

// Metrics returns the observer's registry (nil on a nil observer).
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracing reports whether an event sink is attached. Hot paths call this
// before constructing an Event so the untraced path builds nothing.
func (o *Observer) Tracing() bool { return o != nil && o.sink != nil }

// Emit stamps the event with a sequence number and wall time and forwards it
// to the sink. The number is assigned and the event delivered under one
// lock, so the sink receives, and a JSONLines sink writes, events in
// strictly increasing Seq order even when workers emit concurrently. No-op
// when the observer or its sink is nil.
func (o *Observer) Emit(e Event) {
	if o == nil || o.sink == nil {
		return
	}
	if e.Time == 0 {
		e.Time = time.Now().UnixNano()
	}
	o.emitMu.Lock()
	defer o.emitMu.Unlock()
	o.seq++
	e.Seq = o.seq
	o.sink.Emit(e)
	o.emitted.Inc()
}
