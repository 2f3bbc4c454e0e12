// Package spans is PREDATOR's structured-tracing subsystem: a
// zero-dependency span tracer with W3C-traceparent-compatible IDs, paired
// wall/monotonic timestamps plus a logical span clock, per-span attribute
// counters, and a lock-free bounded buffer of finished spans.
//
// The design follows the observability layer's contract (see package obs):
// every method is nil-safe, so instrumented code paths never branch on
// "is tracing on?" — a nil *Tracer or nil *Span absorbs the call. Spans are
// created only at phase boundaries (harness setup, workload execution,
// prediction searches, report generation, replay, elision binding), never
// per memory access, which is how the subsystem holds the repository's 5%
// overhead envelope (TestSpanOverhead).
//
// Two clocks stamp every span. The wall/monotonic pair supports waterfall
// rendering and OTLP export; the logical clock — a plain atomic counter
// ticked at every span start and end — gives a schedule-stable causal order.
// In deterministic mode (harness Options.Deterministic), phase structure and
// attribute counters are reproducible, so Signature() over a snapshot is
// identical across runs even though wall timestamps differ.
package spans

import (
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the W3C trace-id: 16 bytes, rendered as 32 lowercase hex
// digits. The all-zero value is invalid per the traceparent spec.
type TraceID [16]byte

// SpanID is the W3C parent-id: 8 bytes, 16 lowercase hex digits.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the trace ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the span ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// DefaultCapacity is the span buffer's size, a power of two. Every hot-pair
// search is a span, so one run can finish hundreds (a deterministic
// histogram run finishes 778), and a multi-run experiment such as
// predbench's "all" overflows the buffer: it keeps the newest spans and
// counts the rest in Dropped, so memory stays bounded however long the
// process runs.
const DefaultCapacity = 4096

// Config parameterizes a Tracer.
type Config struct {
	// Deterministic seeds ID generation from Seed instead of the clock, so
	// repeated runs mint identical trace/span IDs, as the CLIs' -deterministic
	// runs do. Structure comparison (Signature) never depends on IDs, so
	// leaving this off only affects the IDs themselves.
	Deterministic bool
	// Seed is the deterministic ID seed (default 1; ignored unless
	// Deterministic).
	Seed uint64
}

// Tracer mints spans for one trace and buffers the finished ones.
// All methods are safe on a nil receiver and safe for concurrent use.
type Tracer struct {
	slots   []atomic.Pointer[Span]
	mask    uint64
	traceID TraceID
	epoch   time.Time // monotonic anchor for mono-nanosecond stamps
	// predlint padcheck: spans start and end on whichever goroutine runs
	// the phase, and each of the four counters below is written there, so
	// each gets its own cache line, clear of the read-only fields above.
	_       [56]byte
	next    atomic.Uint64
	_       [56]byte
	dropped atomic.Uint64
	_       [56]byte
	clock   atomic.Uint64 // logical span clock: ticks at every start/end
	_       [56]byte
	rng     atomic.Uint64 // splitmix64 state for ID generation
}

// New builds a tracer with a fresh trace ID.
func New(cfg Config) *Tracer {
	t := &Tracer{
		slots: make([]atomic.Pointer[Span], DefaultCapacity),
		mask:  DefaultCapacity - 1,
		epoch: time.Now(),
	}
	seed := cfg.Seed
	if cfg.Deterministic {
		if seed == 0 {
			seed = 1
		}
	} else {
		seed = uint64(time.Now().UnixNano())
	}
	t.rng.Store(seed)
	for t.traceID.IsZero() {
		r1, r2 := t.rand(), t.rand()
		for i := 0; i < 8; i++ {
			t.traceID[i] = byte(r1 >> (8 * i))
			t.traceID[8+i] = byte(r2 >> (8 * i))
		}
	}
	return t
}

// rand advances the splitmix64 state and returns the next value.
func (t *Tracer) rand() uint64 {
	for {
		old := t.rng.Load()
		z := old + 0x9e3779b97f4a7c15
		if !t.rng.CompareAndSwap(old, z) {
			continue
		}
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// TraceID returns the tracer's trace ID (zero on a nil tracer).
func (t *Tracer) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.traceID
}

// Dropped returns how many finished spans were overwritten by newer ones.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// newSpanID mints a nonzero span ID.
func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		r := t.rand()
		for i := 0; i < 8; i++ {
			id[i] = byte(r >> (8 * i))
		}
	}
	return id
}

// Start begins a span under parent (nil parent starts a root span). Returns
// nil — a valid, inert span — on a nil tracer.
func (t *Tracer) Start(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		tr:            t,
		id:            t.newSpanID(),
		name:          name,
		startTick:     t.clock.Add(1),
		startUnixNano: time.Now().UnixNano(),
		startMonoNano: int64(time.Since(t.epoch)),
	}
	if parent != nil && parent.tr != nil {
		s.parent = parent.id
	}
	return s
}

// publish appends a finished span to the bounded buffer, dropping the
// oldest when full.
func (t *Tracer) publish(s *Span) {
	idx := t.next.Add(1) - 1
	if prev := t.slots[idx&t.mask].Swap(s); prev != nil {
		t.dropped.Add(1)
	}
}

// Snapshot copies every finished span out of the buffer in logical-clock
// start order. Unfinished spans are not included; call after End.
func (t *Tracer) Snapshot() []Data {
	if t == nil {
		return nil
	}
	out := make([]Data, 0, len(t.slots))
	for i := range t.slots {
		s := t.slots[i].Load()
		if s == nil {
			continue
		}
		out = append(out, s.data())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartTick < out[j].StartTick })
	return out
}

// Span is one phase interval. Safe on a nil receiver: every method no-ops,
// so instrumented code never guards span calls.
type Span struct {
	tr     *Tracer
	id     SpanID
	parent SpanID
	name   string

	startUnixNano int64
	startMonoNano int64
	startTick     uint64
	endUnixNano   int64
	endMonoNano   int64
	endTick       uint64

	mu     sync.Mutex
	attrs  map[string]uint64
	labels map[string]string
	ended  atomic.Bool
}

// ID returns the span's ID (zero on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// TraceID returns the owning trace's ID (zero on nil).
func (s *Span) TraceID() TraceID {
	if s == nil || s.tr == nil {
		return TraceID{}
	}
	return s.tr.traceID
}

// Child starts a sub-span (nil in → nil out).
func (s *Span) Child(name string) *Span {
	if s == nil || s.tr == nil {
		return nil
	}
	return s.tr.Start(name, s)
}

// SetAttr sets one attribute counter (accesses dispatched, tracked lines,
// elided, invalidations, ...). Attribute counters are the span's
// overhead-attribution payload and take part in Signature.
func (s *Span) SetAttr(key string, v uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]uint64)
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// AddAttr adds delta to one attribute counter.
func (s *Span) AddAttr(key string, delta uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]uint64)
	}
	s.attrs[key] += delta
	s.mu.Unlock()
}

// SetLabel sets one string label (workload name, mode, ...). Labels take
// part in Signature like attribute counters.
func (s *Span) SetLabel(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.labels == nil {
		s.labels = make(map[string]string)
	}
	s.labels[key] = v
	s.mu.Unlock()
}

// End finishes the span and publishes it to the tracer's buffer. Repeated
// calls are no-ops, as is End on a nil span.
func (s *Span) End() {
	if s == nil || s.tr == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.endTick = s.tr.clock.Add(1)
	s.endMonoNano = int64(time.Since(s.tr.epoch))
	s.endUnixNano = time.Now().UnixNano()
	s.tr.publish(s)
}

// Duration returns the span's monotonic duration once End has returned on
// the calling goroutine; it is 0 before End and on a nil span.
func (s *Span) Duration() time.Duration {
	if s == nil || !s.ended.Load() {
		return 0
	}
	return time.Duration(s.endMonoNano - s.startMonoNano)
}

// data snapshots the finished span into its exportable form.
func (s *Span) data() Data {
	s.mu.Lock()
	var attrs map[string]uint64
	if len(s.attrs) > 0 {
		attrs = make(map[string]uint64, len(s.attrs))
		for k, v := range s.attrs {
			attrs[k] = v
		}
	}
	var labels map[string]string
	if len(s.labels) > 0 {
		labels = make(map[string]string, len(s.labels))
		for k, v := range s.labels {
			labels[k] = v
		}
	}
	s.mu.Unlock()
	return Data{
		TraceID:       s.tr.traceID.String(),
		SpanID:        s.id.String(),
		Parent:        parentString(s.parent),
		Name:          s.name,
		StartUnixNano: s.startUnixNano,
		EndUnixNano:   s.endUnixNano,
		StartMonoNano: s.startMonoNano,
		EndMonoNano:   s.endMonoNano,
		StartTick:     s.startTick,
		EndTick:       s.endTick,
		Attrs:         attrs,
		Labels:        labels,
	}
}

func parentString(p SpanID) string {
	if p.IsZero() {
		return ""
	}
	return p.String()
}

// Data is one finished span in wire form: what Snapshot returns and
// WriteOTLP renders for -spans-out and the diag /spans endpoint.
type Data struct {
	TraceID       string            `json:"trace_id"`
	SpanID        string            `json:"span_id"`
	Parent        string            `json:"parent_span_id,omitempty"`
	Name          string            `json:"name"`
	StartUnixNano int64             `json:"start_unix_nano"`
	EndUnixNano   int64             `json:"end_unix_nano"`
	StartMonoNano int64             `json:"start_mono_nano"`
	EndMonoNano   int64             `json:"end_mono_nano"`
	StartTick     uint64            `json:"start_tick"`
	EndTick       uint64            `json:"end_tick"`
	Attrs         map[string]uint64 `json:"attrs,omitempty"`
	Labels        map[string]string `json:"labels,omitempty"`
}

// Duration returns the span's monotonic duration.
func (d Data) Duration() time.Duration {
	return time.Duration(d.EndMonoNano - d.StartMonoNano)
}

// Signature renders a snapshot's span tree in a canonical, ID- and
// time-free form: name, labels, and attribute counters, children nested
// under parents in logical-clock order. Two deterministic runs of the same
// configuration produce equal signatures — the span-tree reproducibility
// contract TestSpanTreeDeterministic checks.
func Signature(data []Data) string {
	children := make(map[string][]Data)
	byID := make(map[string]bool, len(data))
	for _, d := range data {
		byID[d.SpanID] = true
	}
	var roots []Data
	for _, d := range data {
		if d.Parent == "" || !byID[d.Parent] {
			roots = append(roots, d)
			continue
		}
		children[d.Parent] = append(children[d.Parent], d)
	}
	var b strings.Builder
	var render func(d Data, depth int)
	render = func(d Data, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(d.Name)
		writeSigPairs(&b, d)
		b.WriteByte('\n')
		kids := children[d.SpanID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartTick < kids[j].StartTick })
		for _, k := range kids {
			render(k, depth+1)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].StartTick < roots[j].StartTick })
	for _, r := range roots {
		render(r, 0)
	}
	return b.String()
}

// writeSigPairs appends the span's labels and attribute counters in sorted
// key order.
func writeSigPairs(b *strings.Builder, d Data) {
	if len(d.Labels) > 0 {
		keys := make([]string, 0, len(d.Labels))
		for k := range d.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%s", k, d.Labels[k])
		}
	}
	if len(d.Attrs) > 0 {
		keys := make([]string, 0, len(d.Attrs))
		for k := range d.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%d", k, d.Attrs[k])
		}
	}
}
