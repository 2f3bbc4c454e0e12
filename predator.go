// Package predator is a Go implementation of PREDATOR, the predictive false
// sharing detector of Liu, Tian, Hu and Berger (PPoPP 2014). It detects
// false sharing that actually happens in a run — threads updating distinct
// words of one cache line — and, uniquely, *predicts* false sharing that
// would appear under a doubled hardware cache line size or a different
// object placement, by tracking virtual cache lines.
//
// The package is a facade over the building blocks in internal/: a simulated
// heap with a Hoard-style per-thread allocator (internal/mem), shadow
// metadata (internal/shadow), the detection and prediction runtime
// (internal/core, internal/detect, internal/predict), and the
// instrumentation front-end whose typed accessors stand in for the paper's
// LLVM instrumentation pass (internal/instr).
//
// Basic use:
//
//	d, _ := predator.New(predator.Options{})
//	t1 := d.Thread("worker-1")
//	addr, _ := t1.Alloc(64)
//	// ... threads access the simulated heap via t1.Load64/Store64 ...
//	rep := d.Report()
//	for _, f := range rep.FalseSharing() { fmt.Println(f.Format(d.Geometry())) }
package predator

import (
	"fmt"
	"io"

	"predator/internal/cacheline"
	"predator/internal/core"
	"predator/internal/fixer"
	"predator/internal/instr"
	"predator/internal/layout"
	"predator/internal/mem"
	"predator/internal/obs"
	"predator/internal/obs/traceout"
	"predator/internal/report"
	"predator/internal/resilience"
)

// Re-exported types: the public API surface of the detector.
type (
	// Thread is a logical thread's handle: typed heap accessors plus
	// allocation helpers. Create one per goroutine with Detector.Thread.
	Thread = instr.Thread
	// Policy selects which accesses are instrumented (paper §2.4.2).
	Policy = instr.Policy
	// Report is a ranked collection of findings.
	Report = report.Report
	// Finding is one detected or predicted sharing problem.
	Finding = report.Finding
	// WordDetail is one word's access summary inside a finding.
	WordDetail = report.WordDetail
	// Sharing classifies a finding (false, true, mixed).
	Sharing = report.Sharing
	// Source says whether a finding was observed or predicted.
	Source = report.Source
	// Object describes a simulated-heap object or registered global.
	Object = mem.Object
	// Heap is the simulated heap.
	Heap = mem.Heap
	// Geometry is the cache line geometry.
	Geometry = cacheline.Geometry
	// RuntimeConfig tunes the detection runtime thresholds.
	RuntimeConfig = core.Config
	// Problem groups a report's findings by affected object.
	Problem = report.Problem
	// Advice is one fix prescription produced by Suggest.
	Advice = fixer.Advice
	// StructLayout models a C-style struct for field-level advice.
	StructLayout = layout.Struct
	// LayoutField is one struct member description.
	LayoutField = layout.Field
	// Observer carries the metrics registry and event sink the detector
	// reports into (see internal/obs).
	Observer = obs.Observer
	// Metrics is a registry of named counters, gauges, and histograms.
	Metrics = obs.Registry
	// Event is one lifecycle trace event.
	Event = obs.Event
	// EventSink receives lifecycle trace events. An Observer delivers its
	// events one at a time, in Seq order, under a lock that every emitting
	// worker waits on: a sink must not block (buffer, or hand slow I/O to
	// its own goroutine) and must not emit back into the observer that
	// feeds it, which would deadlock.
	EventSink = obs.Sink
	// Provenance explains how a finding was established: when the line was
	// flagged, the recorded interleaving, and the verification chain.
	Provenance = report.Provenance
)

// FlightDisabled, assigned to RuntimeConfig.FlightDepth, turns flight
// recording (and with it finding provenance and timeline export) off.
const FlightDisabled = core.FlightDisabled

// NewObserver builds an Observer over a fresh metrics registry. A nil sink
// collects metrics without tracing events; see NewJSONLinesSink for a sink
// that streams events as JSON lines. Delivery to the sink is serialized, so
// it must not block or call back into the observer's Emit (see EventSink).
func NewObserver(sink EventSink) *Observer { return obs.New(obs.NewRegistry(), sink) }

// NewResilientObserver is NewObserver with the sink wrapped in a panic
// isolation boundary (see internal/resilience): a sink that panics more than
// resilience.DefaultPanicLimit times is quarantined — after one final
// sink_quarantined event — while detection continues. Use it whenever the
// sink is not fully trusted (plugins, network exporters). The guard catches
// panics only: delivery is still serialized per observer, so a sink that
// blocks stalls every worker's Emit, and one that emits back into this
// observer deadlocks. Give a network exporter its own buffer and goroutine.
func NewResilientObserver(name string, sink EventSink) *Observer {
	return obs.New(obs.NewRegistry(), resilience.GuardSink(name, sink, 0, nil))
}

// NewJSONLinesSink returns a sink encoding each event as one JSON object per
// line. Call Flush before closing the underlying writer.
func NewJSONLinesSink(w io.Writer) *obs.JSONLines { return obs.NewJSONLines(w) }

// NewLayout lays out struct fields under C alignment rules; pass the result
// in SuggestOptions.Layouts keyed by object start address for field-level
// fix advice.
func NewLayout(name string, fields ...LayoutField) (*StructLayout, error) {
	return layout.New(name, fields...)
}

// SuggestOptions configures fix-advice generation.
type SuggestOptions struct {
	// Layouts maps object start addresses to their element layouts.
	Layouts map[uint64]*StructLayout
}

// Suggest turns a report's false sharing problems into concrete fix
// prescriptions (the paper's §6 "Suggest Fixes" extension), ranked like the
// report.
func (d *Detector) Suggest(rep *Report, opts SuggestOptions) []Advice {
	return fixer.Suggest(rep, fixer.Options{
		Geometry: d.Geometry(),
		Layouts:  opts.Layouts,
	})
}

// Re-exported classification constants.
const (
	SharingNone  = report.SharingNone
	SharingFalse = report.SharingFalse
	SharingTrue  = report.SharingTrue
	SharingMixed = report.SharingMixed

	SourceObserved           = report.SourceObserved
	SourcePredictedAlignment = report.SourcePredictedAlignment
	SourcePredictedLineSize  = report.SourcePredictedLineSize
)

// Options configures a Detector. The zero value selects the paper's
// defaults: a 256 MiB simulated heap at 0x400000000 with 64-byte lines,
// tracking threshold 100, 1% sampling, prediction enabled.
type Options struct {
	// HeapSize is the simulated heap size in bytes (default 256 MiB).
	HeapSize uint64
	// HeapBase is the simulated heap start address (default 0x400000000).
	HeapBase uint64
	// LineSize is the physical cache line size (default 64).
	LineSize int
	// Runtime overrides the detection thresholds; a zero value selects
	// core.DefaultConfig(). To disable prediction, set Runtime explicitly
	// (e.g. start from DefaultRuntimeConfig and flip Prediction).
	Runtime *RuntimeConfig
	// Policy selects which accesses are instrumented.
	Policy Policy
	// Uninstrumented builds a Detector whose accessors touch memory but
	// report nothing — the "Original" baseline for overhead measurement.
	Uninstrumented bool
	// Observer, when non-nil, receives the detector's metrics and — when
	// it has an event sink — lifecycle trace events. Nil (the default)
	// leaves the hot path uninstrumented.
	Observer *Observer
	// Strict selects the out-of-heap access policy. Nil (the default) and
	// &true panic on any out-of-heap access — workload bugs fail loudly.
	// Point it at false for the resilience layer's fault-tolerant mode:
	// out-of-heap accesses become recoverable typed faults
	// (instr.ErrOutOfHeap) counted per thread, loads return zero, stores
	// are dropped, and detection continues.
	Strict *bool
}

// DefaultRuntimeConfig returns the paper's default thresholds.
func DefaultRuntimeConfig() RuntimeConfig { return core.DefaultConfig() }

// Detector owns a simulated heap, the PREDATOR runtime attached to it, and
// the instrumentation front-end.
type Detector struct {
	heap *mem.Heap
	rt   *core.Runtime
	in   *instr.Instrumenter
	obs  *Observer
}

// New builds a Detector.
func New(opts Options) (*Detector, error) {
	h, err := mem.NewHeap(mem.Config{
		Base:     opts.HeapBase,
		Size:     opts.HeapSize,
		LineSize: opts.LineSize,
	})
	if err != nil {
		return nil, err
	}
	h.Observe(opts.Observer)
	d := &Detector{heap: h, obs: opts.Observer}
	if !opts.Uninstrumented {
		cfg := core.DefaultConfig()
		if opts.Runtime != nil {
			cfg = *opts.Runtime
		}
		if opts.Observer != nil {
			cfg.Observer = opts.Observer
		}
		rt, err := core.NewRuntime(h, cfg)
		if err != nil {
			return nil, err
		}
		d.rt = rt
		d.in = instr.New(h, rt, opts.Policy)
	} else {
		d.in = instr.New(h, nil, opts.Policy)
	}
	d.in.Observe(opts.Observer)
	if opts.Strict != nil {
		d.in.SetStrict(*opts.Strict)
	}
	return d, nil
}

// Observer returns the detector's observer, or nil when unobserved.
func (d *Detector) Observer() *Observer { return d.obs }

// WriteMetrics writes the observer's metrics in Prometheus text format,
// flushing batched hot-path counters first so the snapshot is exact. It is a
// no-op (and returns nil) for unobserved detectors.
func (d *Detector) WriteMetrics(w io.Writer) error {
	if d.obs == nil {
		return nil
	}
	d.Stats()
	return d.obs.Metrics().WritePrometheus(w)
}

// WriteTimeline renders the detector's flight-recorder contents as Chrome
// trace-event / Perfetto JSON (load the output in ui.perfetto.dev): one track
// per thread with its recorded accesses and invalidation marks, plus the
// detector's phase spans. It errors for uninstrumented detectors and when
// flight recording was disabled (RuntimeConfig.FlightDepth = FlightDisabled).
func (d *Detector) WriteTimeline(w io.Writer) error {
	if d.rt == nil {
		return fmt.Errorf("predator: uninstrumented detector has no timeline")
	}
	dump := d.rt.FlightDump(0, -1)
	if dump == nil {
		return fmt.Errorf("predator: flight recording disabled (FlightDepth = FlightDisabled)")
	}
	return traceout.WriteTimeline(w, dump, d.in.ThreadNames())
}

// Thread mints a handle for one logical thread. Each goroutine must use its
// own Thread.
func (d *Detector) Thread(name string) *Thread { return d.in.NewThread(name) }

// Heap exposes the simulated heap (globals registration, object queries).
func (d *Detector) Heap() *Heap { return d.heap }

// Geometry returns the detector's cache line geometry.
func (d *Detector) Geometry() Geometry { return d.heap.Geometry() }

// Instrumented reports whether accesses are delivered to a runtime.
func (d *Detector) Instrumented() bool { return d.rt != nil }

// SetEnabled toggles instrumentation delivery at runtime (no-op for
// uninstrumented detectors).
func (d *Detector) SetEnabled(v bool) { d.in.SetEnabled(v) }

// Report distills the run into ranked findings. For uninstrumented
// detectors it returns an empty report.
func (d *Detector) Report() *Report {
	if d.rt == nil {
		return &Report{Geometry: d.heap.Geometry()}
	}
	return d.rt.Report()
}

// Stats summarizes detector activity.
type Stats struct {
	Accesses             uint64 // events delivered to the runtime
	Writes               uint64
	TrackedLines         int
	VirtualLines         int
	Invalidations        uint64 // invalidations observed on tracked lines
	VirtualInvalidations uint64 // invalidations verified on virtual lines
	SampledAccesses      uint64 // accesses recorded in detail (post-sampling)
	Delivered            uint64 // events delivered by the instrumentation front-end
	Suppressed           uint64 // events dropped by instrumentation policy
	HeapLive             uint64 // live simulated-heap bytes
	HeapUsed             uint64 // carved simulated-heap bytes

	// Resilience accounting.
	Faults            uint64 // out-of-heap accesses absorbed (non-strict mode)
	DegradedLines     int    // tracked lines degraded to invalidation-counting-only
	Evictions         uint64 // lines degraded to admit newer lines
	VirtualRejections uint64 // virtual lines refused by MaxVirtualLines
	Degraded          bool   // any detection detail shed under resource pressure
}

// Stats returns a snapshot of detector counters, flushing batched hot-path
// metric pushes so the observer's registry is exact afterwards.
func (d *Detector) Stats() Stats {
	d.in.FlushMetrics()
	hs := d.heap.Stats()
	s := Stats{
		Delivered:  d.in.Delivered(),
		Suppressed: d.in.Suppressed(),
		HeapLive:   hs.LiveBytes,
		HeapUsed:   hs.UsedBytes,
		Faults:     d.in.Faults(),
	}
	if d.rt != nil {
		rs := d.rt.Stats()
		s.Accesses = rs.Accesses
		s.Writes = rs.Writes
		s.TrackedLines = rs.TrackedLines
		s.VirtualLines = rs.VirtualLines
		s.Invalidations = rs.Invalidations
		s.VirtualInvalidations = rs.VirtualInvalidations
		s.SampledAccesses = rs.SampledAccesses
		s.DegradedLines = rs.DegradedLines
		s.Evictions = rs.Evictions
		s.VirtualRejections = rs.VirtualRejections
		s.Degraded = rs.Degraded
	}
	return s
}
