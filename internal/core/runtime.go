// Package core is PREDATOR's runtime system (paper §2.3, §2.4, §3): it
// receives every instrumented memory access and composes the substrates —
// shadow memory, two-entry history tables, detailed word tracking with
// sampling, and virtual-line prediction — into the paper's detection and
// prediction pipeline:
//
//  1. Count writes per cache line in shadow memory (cheap pre-phase).
//  2. At TrackingThreshold, install detailed tracking for the line — and,
//     when prediction is on, for its adjacent lines (§3.2 step 2).
//  3. At PredictionThreshold, search the line and its neighbours for hot
//     access pairs and register centered/doubled virtual lines (§3.3).
//  4. Verify predictions by counting real invalidations on the virtual
//     lines (§3.4).
//  5. Report() distills everything into ranked findings and quarantines
//     falsely-shared objects against reuse.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"predator/internal/cacheline"
	"predator/internal/detect"
	"predator/internal/mem"
	"predator/internal/obs"
	"predator/internal/obs/flight"
	"predator/internal/obs/spans"
	"predator/internal/predict"
	"predator/internal/report"
	"predator/internal/shadow"
)

// Default thresholds. The paper names the TrackingThreshold and a 1%
// sampling rate (10,000 recorded out of every 1,000,000 accesses); the
// remaining defaults follow its "large number of invalidations" guidance.
const (
	DefaultTrackingThreshold   = 100
	DefaultPredictionThreshold = 200
	DefaultReportThreshold     = 1000
	DefaultSampleWindow        = 1_000_000
	DefaultSampleBurst         = 10_000
)

// FlightDisabled as Config.FlightDepth turns flight recording off entirely.
// The zero value means "enabled at the default depth" so existing Config
// literals gain provenance and timelines without opting in.
const FlightDisabled = -1

// Config tunes the runtime. Use DefaultConfig as the baseline.
type Config struct {
	// TrackingThreshold is the per-line write count that triggers
	// detailed tracking (paper §2.4.1).
	TrackingThreshold uint64
	// PredictionThreshold is the per-line recorded write count that
	// triggers the hot-pair search (paper §3.2 step 3).
	PredictionThreshold uint64
	// ReportThreshold is the minimum number of (verified) invalidations
	// for a line or virtual line to be reported.
	ReportThreshold uint64
	// SampleWindow/SampleBurst configure per-line sampling (§2.4.3):
	// only the first SampleBurst accesses of every SampleWindow are
	// recorded. SampleWindow = 0 disables sampling (record everything).
	SampleWindow uint64
	SampleBurst  uint64
	// Prediction enables virtual-line false sharing prediction (§3).
	// Corresponds to PREDATOR vs PREDATOR-NP in the paper's evaluation.
	Prediction bool
	// FlightDepth sizes the per-tracked-line flight recorder ring (rounded
	// up to a power of two, clamped to flight.MaxDepth). 0 (the zero value)
	// selects flight.DefaultDepth — recorders are armed whenever a line is
	// promoted to detailed tracking, so findings carry provenance and
	// timelines by default. FlightDisabled (-1) turns recording off; other
	// negative values are rejected by Validate.
	FlightDepth int
	// Observer, when non-nil, receives runtime metrics and — when it
	// carries a span tracer — the predict.search and report.collect spans.
	// The nil default leaves the fast path uninstrumented.
	Observer *obs.Observer
}

// Validate rejects configurations that cannot work: a sampling burst larger
// than its window, or a zero tracking threshold (the pre-phase would never
// count anything before installing tracks, defeating its purpose).
func (c Config) Validate() error {
	if c.TrackingThreshold == 0 {
		return fmt.Errorf("core: TrackingThreshold must be positive")
	}
	if c.SampleWindow > 0 && c.SampleBurst > c.SampleWindow {
		return fmt.Errorf("core: SampleBurst %d exceeds SampleWindow %d", c.SampleBurst, c.SampleWindow)
	}
	if c.SampleWindow > 0 && c.SampleBurst == 0 {
		return fmt.Errorf("core: sampling enabled with zero SampleBurst records nothing")
	}
	if c.FlightDepth < FlightDisabled {
		return fmt.Errorf("core: FlightDepth must be FlightDisabled (-1), 0 (default), or a positive depth, got %d", c.FlightDepth)
	}
	return nil
}

// DefaultConfig returns the paper's default configuration with prediction
// enabled.
func DefaultConfig() Config {
	return Config{
		TrackingThreshold:   DefaultTrackingThreshold,
		PredictionThreshold: DefaultPredictionThreshold,
		ReportThreshold:     DefaultReportThreshold,
		SampleWindow:        DefaultSampleWindow,
		SampleBurst:         DefaultSampleBurst,
		Prediction:          true,
	}
}

// Runtime is the PREDATOR runtime attached to one simulated heap.
type Runtime struct {
	// slots maps each tid to its counts (countSlot): read on every access
	// beside the read-only fields below, and replaced copy-on-write under
	// slotsMu on a tid's first access.
	slots atomic.Pointer[[]*countSlot]

	cfg  Config
	heap *mem.Heap
	geom cacheline.Geometry

	mapping shadow.Mapping
	sh      *shadow.Memory[detect.Track]
	sampler detect.Sampler

	vreg    *predict.Registry
	vactive atomic.Bool // fast-path gate: any virtual lines registered?
	// predlint padcheck: vactive is read on every access, so SetSpan's
	// stores to spanParent go on the next cache line.
	_ [60]byte

	// Span tracing: parent is the enclosing pipeline span detector-phase
	// spans (predict.search, report.collect) nest under. The harness swaps
	// it at phase boundaries via SetSpan; nil (or a nil observer tracer)
	// leaves the detector span-free.
	spanParent atomic.Pointer[spans.Span]

	// Flight recording (tentpole: causal timeline tracing). fclock is nil
	// when FlightDepth == FlightDisabled; otherwise every promoted line and
	// registered virtual line is armed with a ring of fdepth slots on this
	// shared clock.
	fclock *flight.Clock
	fdepth int

	// slotsMu serializes addSlot. totalAccesses and totalWrites hold what
	// the slots have published, plus every access of a tid without a slot.
	slotsMu sync.Mutex
	// predlint padcheck: pads keep each contended counter on its own cache line.
	_             [24]byte
	totalAccesses atomic.Uint64
	_             [56]byte
	totalWrites   atomic.Uint64
	// predlint padcheck: obs and self are read on the access path, so they
	// start the next cache line.
	_ [56]byte

	// Observability (nil when cfg.Observer is nil; every instrument method
	// is nil-safe, so the fast path stays branch-light when unobserved).
	// Hot-path counters are batched: the access path syncs the registry only
	// every obs.SyncBatch-th event, and flushMetrics pushes exact totals at
	// snapshot points, so attaching a metrics-only observer costs one
	// predictable branch per access instead of atomic adds.
	obs            *obs.Observer
	self           *obs.SelfProfiler // sampled hot-path self-timing; usually nil
	_              [48]byte
	obsInvs        atomic.Uint64 // invalidations seen while observed
	pushedAccesses atomic.Uint64
	pushedWrites   atomic.Uint64
	pushedInvs     atomic.Uint64
	accessesC      *obs.Counter
	writesC        *obs.Counter
	invC           *obs.Counter
	promotionsC    *obs.Counter
	hotPairsC      *obs.Counter
	trackedG       *obs.Gauge
	predictH       *obs.Histogram
	reportH        *obs.Histogram
	lineInvH       *obs.Histogram
}

// NewRuntime attaches a runtime to a heap. It installs the heap's free hook
// so metadata of unflagged freed objects is recycled (paper §2.3.2).
func NewRuntime(h *mem.Heap, cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geom := h.Geometry()
	mapping, err := shadow.NewMapping(h.Base(), h.Size(), geom)
	if err != nil {
		return nil, err
	}
	sampler := detect.Sampler{Window: cfg.SampleWindow, Burst: cfg.SampleBurst}
	rt := &Runtime{
		cfg:     cfg,
		heap:    h,
		geom:    geom,
		mapping: mapping,
		sh:      shadow.NewMemory[detect.Track](mapping),
		sampler: sampler,
		vreg:    predict.NewRegistry(geom, sampler),
	}
	rt.slots.Store(&noSlots)
	rt.vreg.SetTracks(rt.trackAt)
	if cfg.FlightDepth != FlightDisabled {
		rt.fclock = &flight.Clock{}
		rt.fdepth = flight.RoundDepth(cfg.FlightDepth)
		rt.vreg.SetFlight(rt.fclock, rt.fdepth, cfg.ReportThreshold)
	}
	h.AddFreeHook(rt.onFree)
	if o := cfg.Observer; o != nil {
		rt.obs = o
		rt.self = o.Self()
		reg := o.Metrics()
		rt.accessesC = reg.Counter("predator_accesses_total",
			"Memory accesses delivered to the runtime.")
		rt.writesC = reg.Counter("predator_writes_total",
			"Write accesses delivered to the runtime.")
		rt.invC = reg.Counter("predator_invalidations_total",
			"Cache invalidations observed on tracked physical lines.")
		rt.promotionsC = reg.Counter("predator_track_promotions_total",
			"Cache lines promoted to detailed tracking.")
		rt.hotPairsC = reg.Counter("predator_hot_pairs_total",
			"Hot access pairs found by the prediction search.")
		rt.trackedG = reg.Gauge("predator_tracked_lines",
			"Cache lines currently under detailed tracking.")
		if o.Spans() != nil {
			// Phase latencies are the durations of the phases' spans.
			rt.predictH = reg.Histogram("predator_prediction_seconds",
				"Hot-pair search latency per triggered line.",
				[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2})
			rt.reportH = reg.Histogram("predator_report_seconds",
				"Report generation latency.",
				[]float64{1e-4, 1e-3, 1e-2, 1e-1, 1})
		}
		rt.lineInvH = reg.Histogram("predator_line_invalidations",
			"Distribution of invalidation counts across tracked lines at report time.",
			[]float64{1, 10, 100, 1000, 10000, 100000})
		rt.vreg.SetObserver(o)
	}
	return rt, nil
}

// Heap returns the runtime's heap.
func (rt *Runtime) Heap() *mem.Heap { return rt.heap }

// SetSpan installs the pipeline span that detector-phase spans (prediction
// searches, report generation) nest under. The harness points it at the
// workload span for the run's duration and at the run span for the final
// report. Nil detaches.
func (rt *Runtime) SetSpan(s *spans.Span) { rt.spanParent.Store(s) }

// tracer returns the observer's span tracer (nil when tracing is off).
func (rt *Runtime) tracer() *spans.Tracer {
	if rt.obs == nil {
		return nil
	}
	return rt.obs.Spans()
}

// Config returns the runtime's configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// HandleAccess is the instrumentation entry point (paper Figure 1): one
// memory access of the given size by thread tid. Accesses spanning line
// boundaries are split across the lines they touch. Accesses outside the
// simulated heap are ignored. One goroutine at a time delivers a given
// tid's accesses, as a front-end thread or a replay loop does: the tid's
// counts are plain fields only that goroutine writes (see countSlot).
func (rt *Runtime) HandleAccess(tid int, addr, size uint64, isWrite bool) {
	if size == 0 {
		return
	}
	var c *countSlot
	if t := *rt.slots.Load(); uint(tid) < uint(len(t)) {
		c = t[tid]
	}
	if c == nil {
		if c = rt.addSlot(tid); c == nil {
			rt.countShared(isWrite)
			rt.dispatch(tid, addr, size, isWrite)
			return
		}
	}
	if isWrite {
		if c.writes++; c.writes == obs.SyncBatch {
			c.writes = 0
			obs.SyncCounter(rt.writesC, rt.totalWrites.Add(obs.SyncBatch), &rt.pushedWrites)
		}
	}
	if c.accesses++; c.accesses == obs.SyncBatch {
		c.accesses = 0
		obs.SyncCounter(rt.accessesC, rt.totalAccesses.Add(obs.SyncBatch), &rt.pushedAccesses)
		if rt.self != nil {
			// Self-profiling times one full access per SyncBatch of a
			// thread: the histogram mean approximates the per-access
			// instrumented cost while the other SyncBatch-1 accesses pay
			// only the nil check.
			began := time.Now()
			rt.dispatch(tid, addr, size, isWrite)
			rt.self.ObserveTrack(time.Since(began))
			return
		}
	}
	rt.dispatch(tid, addr, size, isWrite)
}

// countSlot is one tid's access and write counts not yet added to the
// runtime's shared totals. Only the goroutine delivering the tid's accesses
// writes it, with plain increments: an atomic store would compile to a
// locked XCHG on amd64, which is the cost the slot exists to avoid. Every
// obs.SyncBatch counts it adds the batch to the shared total. The padding
// gives each slot cache lines no other slot shares.
type countSlot struct {
	accesses, writes uint64
	_                [112]byte
}

// maxCountSlots bounds the slot table. A tid outside [0, maxCountSlots) —
// a salvaged trace can carry any int32 — counts on the shared totals
// instead of sizing the table.
const maxCountSlots = 1 << 10

// noSlots is the empty table a runtime starts with; tables are never
// written once published, so every runtime can share it.
var noSlots []*countSlot

// addSlot runs on a tid's first access: it publishes a copy of the slot
// table that holds a slot for tid and returns the slot, or nil when tid is
// out of the table's range.
func (rt *Runtime) addSlot(tid int) *countSlot {
	if uint(tid) >= maxCountSlots {
		return nil
	}
	rt.slotsMu.Lock()
	defer rt.slotsMu.Unlock()
	old := *rt.slots.Load()
	if tid < len(old) && old[tid] != nil {
		return old[tid]
	}
	t := make([]*countSlot, max(len(old), tid+1))
	copy(t, old)
	t[tid] = new(countSlot)
	rt.slots.Store(&t)
	return t[tid]
}

// countShared counts an access of a tid without a slot on the shared
// totals, one locked add each.
func (rt *Runtime) countShared(isWrite bool) {
	if isWrite {
		if nw := rt.totalWrites.Add(1); nw%obs.SyncBatch == 0 {
			obs.SyncCounter(rt.writesC, nw, &rt.pushedWrites)
		}
	}
	if n := rt.totalAccesses.Add(1); n%obs.SyncBatch == 0 {
		obs.SyncCounter(rt.accessesC, n, &rt.pushedAccesses)
	}
}

// counts returns the access and write totals the slots have published and,
// when exact, adds every slot's unpublished remainder. Reading a remainder
// races with the goroutine that writes it, so exact is for a caller those
// goroutines have joined, or one that delivers the accesses itself.
func (rt *Runtime) counts(exact bool) (accesses, writes uint64) {
	accesses, writes = rt.totalAccesses.Load(), rt.totalWrites.Load()
	if !exact {
		return accesses, writes
	}
	for _, c := range *rt.slots.Load() {
		if c != nil {
			accesses += c.accesses
			writes += c.writes
		}
	}
	return accesses, writes
}

// dispatch routes one access through the per-line detection path and —
// when virtual lines are active — prediction verification.
func (rt *Runtime) dispatch(tid int, addr, size uint64, isWrite bool) {
	first, ok := rt.mapping.Index(addr)
	if !ok {
		return
	}
	last, ok := rt.mapping.Index(addr + size - 1)
	if !ok {
		last = first
	}
	for line := first; line <= last; line++ {
		if rt.handleLine(tid, line, addr, size, isWrite) {
			return
		}
	}
	if rt.cfg.Prediction && rt.vactive.Load() {
		rt.vreg.Route(tid, addr, size, isWrite)
	}
}

// handleLine applies one access to one covered line. It reports whether the
// access was counted on its word's counter, which counts it for the line's
// virtual lines too, so that it needs no routing.
func (rt *Runtime) handleLine(tid int, line uint64, addr, size uint64, isWrite bool) (counted bool) {
	// One chunk lookup reads both the line's track and its write count; a
	// nil slot is a line nothing in its chunk has written yet.
	slot := rt.sh.Lookup(line)
	var track *detect.Track
	if slot != nil {
		track = slot.Track()
	}
	if track == nil {
		// Pre-tracking phase: count writes only (§2.4.1).
		if slot == nil || slot.Writes() < rt.cfg.TrackingThreshold {
			if !isWrite {
				return
			}
			if rt.sh.IncWrites(line) < rt.cfg.TrackingThreshold {
				return
			}
		}
		track = rt.installTrack(line)
	}
	// A line that carries virtual lines counts an aligned word access to an
	// open word with the word's one add, for itself and its virtual lines
	// (DESIGN §5). Past the word's limit the registry decides the access on
	// the line's folded ordinal, and routing decides it for the virtual lines.
	var open, within, invalidated bool
	if c := rt.wordCounter(track, addr, size); c != nil {
		open, within = c.Count()
	}
	switch {
	case within:
		return true
	case open:
		invalidated = rt.vreg.Settle(track, rt.geom.WordIndex(addr), tid, addr, size, isWrite)
	default:
		invalidated = track.HandleAccess(tid, addr, size, isWrite)
	}
	if invalidated {
		if rt.obs != nil {
			ti := rt.obsInvs.Add(1)
			if ti&(obs.SyncBatch-1) == 0 {
				obs.SyncCounter(rt.invC, ti, &rt.pushedInvs)
			}
		}
	}
	if rt.cfg.Prediction && isWrite &&
		track.Writes() >= rt.cfg.PredictionThreshold &&
		track.ClaimSearch() {
		rt.runPrediction(line, track)
	}
	return false
}

// wordCounter returns the counter of the word an aligned 8-byte access
// covers, or nil when the access is not one or the line counts every access
// itself.
func (rt *Runtime) wordCounter(track *detect.Track, addr, size uint64) *detect.WordCounter {
	if size != cacheline.WordSize || addr&(cacheline.WordSize-1) != 0 {
		return nil
	}
	return track.Counter(rt.geom.WordIndex(addr))
}

// trackAt returns the track of the line at lineBase, nil when untracked.
func (rt *Runtime) trackAt(lineBase uint64) *detect.Track {
	line, ok := rt.mapping.Index(lineBase)
	if !ok {
		return nil
	}
	return rt.sh.Track(line)
}

// installTrack creates detailed tracking for a line, and — when prediction
// is enabled — for its neighbours, so word-level information accumulates on
// the adjacent lines too (§3.2 step 2).
func (rt *Runtime) installTrack(line uint64) *detect.Track {
	t := rt.installOne(line)
	if rt.cfg.Prediction {
		if line > 0 && rt.sh.Track(line-1) == nil {
			rt.installOne(line - 1)
		}
		if line+1 < rt.mapping.Lines() && rt.sh.Track(line+1) == nil {
			rt.installOne(line + 1)
		}
	}
	return t
}

// installOne installs tracking for a single line, recording the promotion
// only when this caller's track won the install race (InstallTrack returns
// the existing track when another goroutine got there first).
func (rt *Runtime) installOne(line uint64) *detect.Track {
	fresh := detect.NewTrackObserved(rt.mapping.LineBase(line), rt.geom, rt.sampler, rt.obs)
	fresh.SetReportThreshold(rt.cfg.ReportThreshold)
	if rt.fclock != nil {
		// Arming rule: recorders exist only on promoted lines, created
		// before publication so the hot path never sees a half-armed track.
		fresh.ArmFlight(flight.NewRecorder(rt.fclock, rt.fdepth))
	}
	t := rt.sh.InstallTrack(line, fresh)
	if t == fresh {
		rt.promotionsC.Inc()
		rt.trackedG.Add(1)
	}
	return t
}

// runPrediction is the §3.3 hot-pair search over the line and its
// neighbours: it registers virtual lines for verification, and its
// predict.search span times it.
func (rt *Runtime) runPrediction(line uint64, track *detect.Track) {
	psp := rt.tracer().Start("predict.search", rt.spanParent.Load())
	psp.SetAttr("line", line)
	registered := false
	pairs := uint64(0)
	for _, adj := range []uint64{line - 1, line + 1} {
		if adj >= rt.mapping.Lines() { // also catches line-1 underflow at line 0
			continue
		}
		adjTrack := rt.sh.Track(adj)
		for _, pair := range predict.FindPairs(track, adjTrack, rt.geom) {
			pairs++
			rt.hotPairsC.Inc()
			if rt.vreg.Add(pair) != nil {
				registered = true
			}
		}
	}
	if registered {
		rt.vactive.Store(true)
	}
	psp.SetAttr("hot_pairs", pairs)
	psp.End()
	rt.predictH.Observe(psp.Duration().Seconds())
}

// onFree recycles shadow metadata for the freed object's lines: a line is
// reset only if no other live object overlaps it, so neighbours' history is
// preserved. Flagged objects never reach this hook (they are quarantined).
func (rt *Runtime) onFree(start, size uint64) {
	if size == 0 {
		return
	}
	first, ok := rt.mapping.Index(start)
	if !ok {
		return
	}
	last, ok := rt.mapping.Index(start + size - 1)
	if !ok {
		last = first
	}
	for line := first; line <= last; line++ {
		lineBase := rt.mapping.LineBase(line)
		others := rt.heap.ObjectsOverlapping(lineBase, lineBase+rt.geom.Size())
		if len(others) > 0 {
			continue
		}
		rt.sh.ResetWrites(line)
		if t := rt.sh.Track(line); t != nil {
			rt.vreg.ResetTrack(t)
		}
	}
}

// flushMetrics pushes the totals behind the batched hot-path counters into
// the registry. With exact (see counts) the access and write counters read
// exactly; without, they read the published totals, which lag by less than
// obs.SyncBatch per thread, as heartbeats between flushes do.
func (rt *Runtime) flushMetrics(exact bool) {
	if rt.obs == nil {
		return
	}
	accesses, writes := rt.counts(exact)
	obs.SyncCounter(rt.accessesC, accesses, &rt.pushedAccesses)
	obs.SyncCounter(rt.writesC, writes, &rt.pushedWrites)
	obs.SyncCounter(rt.invC, rt.obsInvs.Load(), &rt.pushedInvs)
	rt.sh.ForEachTracked(func(_ uint64, t *detect.Track) { t.FlushMetrics() })
}

// wordsForSpan gathers word details from all tracked lines overlapping a
// span, clipped to the span.
func (rt *Runtime) wordsForSpan(span cacheline.Virtual) []report.WordDetail {
	var out []report.WordDetail
	first, ok := rt.mapping.Index(span.Start)
	if !ok {
		return nil
	}
	last, ok := rt.mapping.Index(span.End - 1)
	if !ok {
		last = first
	}
	for line := first; line <= last; line++ {
		t := rt.sh.Track(line)
		if t == nil {
			continue
		}
		for _, w := range t.Words() {
			addr := t.WordAddr(w.Index)
			if !span.Overlaps(addr, cacheline.WordSize) {
				continue
			}
			out = append(out, report.WordDetail{
				Addr:   addr,
				Reads:  w.Reads,
				Writes: w.Writes,
				Owner:  w.EffectiveOwner(),
			})
		}
	}
	return out
}

// Report distills the runtime's state into a ranked report, timed by its
// report.collect span. Objects named in false sharing findings are flagged
// in the heap so their memory is never reused.
func (rt *Runtime) Report() *report.Report {
	rsp := rt.tracer().Start("report.collect", rt.spanParent.Load())
	rep := rt.collectReport(true, rsp)
	rsp.SetAttr("findings", uint64(len(rep.Findings)))
	rsp.End()
	rt.reportH.Observe(rsp.Duration().Seconds())
	return rep
}

// Provisional builds the same ranked report as Report but without side
// effects: no objects are quarantined, no report span is recorded, and no
// report-time histograms are observed. It is safe to call repeatedly during
// a live run — the diagnostics server serves it from /findings — and leaves
// the eventual final Report unchanged.
func (rt *Runtime) Provisional() *report.Report {
	return rt.collectReport(false, nil)
}

// collectReport walks the tracked and virtual lines and distills findings.
// final gates the mutating behaviour reserved for the one end-of-run
// Report: quarantining falsely-shared objects and the line-invalidation
// histogram. sp, when non-nil, is the enclosing report span: verification
// outcomes are counted on it, and every finding's provenance is stamped
// with its span ID so a -json finding links back to its span in the
// -spans-out trace.
func (rt *Runtime) collectReport(final bool, sp *spans.Span) *report.Report {
	rt.flushMetrics(final)
	rep := &report.Report{Geometry: rt.geom}

	// Observed findings: tracked physical lines above the threshold.
	rt.sh.ForEachTracked(func(line uint64, t *detect.Track) {
		if final {
			rt.lineInvH.Observe(float64(t.Invalidations()))
		}
		if t.Invalidations() < rt.cfg.ReportThreshold {
			return
		}
		span := cacheline.NewVirtual(rt.mapping.LineBase(line), rt.geom.Size())
		words := rt.wordsForSpan(span)
		rep.Findings = append(rep.Findings, report.Finding{
			Source:        report.SourceObserved,
			Sharing:       report.Classify(words),
			Span:          span,
			Objects:       rt.heap.ObjectsOverlapping(span.Start, span.End),
			Accesses:      t.Accesses(),
			Reads:         t.Reads(),
			Writes:        t.Writes(),
			Invalidations: t.Invalidations(),
			Words:         words,
			Provenance:    rt.observedProvenance(t),
		})
	})

	// Predicted findings: verified virtual lines above the threshold.
	for _, v := range rt.vreg.Tracks() {
		if v.Invalidations() >= rt.cfg.ReportThreshold {
			sp.AddAttr("verified", 1)
		} else {
			sp.AddAttr("rejected", 1)
		}
		if v.Invalidations() < rt.cfg.ReportThreshold {
			continue
		}
		span := v.Span()
		words := rt.wordsForSpan(span)
		rep.Findings = append(rep.Findings, report.Finding{
			Source:        report.SourceForKind(v.Pair.Kind),
			Sharing:       report.Classify(words),
			Span:          span,
			Objects:       rt.heap.ObjectsOverlapping(span.Start, span.End),
			Accesses:      v.Accesses(),
			Invalidations: v.Invalidations(),
			Estimate:      v.Pair.Estimate,
			Words:         words,
			Provenance:    rt.predictedProvenance(v),
		})
	}

	rep.Rank()

	if id := sp.ID(); !id.IsZero() {
		for _, f := range rep.Findings {
			if f.Provenance != nil {
				f.Provenance.SpanID = id.String()
			}
		}
	}

	if final {
		// Quarantine falsely-shared objects against reuse.
		for _, f := range rep.FalseSharing() {
			for _, o := range f.Objects {
				if !o.Global {
					rt.heap.FlagObject(o.Start)
				}
			}
		}
	}
	return rep
}

// Stats summarizes runtime activity.
type Stats struct {
	Accesses             uint64 // accesses delivered to the runtime
	Writes               uint64 // write accesses delivered
	TrackedLines         int    // lines with detailed tracking installed
	VirtualLines         int    // virtual lines registered for verification
	Invalidations        uint64 // invalidations observed on tracked physical lines
	VirtualInvalidations uint64 // invalidations verified on virtual lines
	SampledAccesses      uint64 // accesses recorded in detail (post-sampling)
}

// Stats returns a snapshot of runtime counters. Invalidation and sampling
// totals are summed from per-line state at snapshot time, so the access fast
// path carries no extra aggregate counters. Accesses and Writes add every
// thread's unpublished count, so they are exact, and the call race-free,
// once the goroutines delivering accesses have joined the caller, or when
// the caller delivers them itself, as trace replay does. A reader running
// beside them calls LiveStats.
func (rt *Runtime) Stats() Stats { return rt.stats(true) }

// LiveStats is Stats for a reader running beside the workers, such as the
// diagnostics server: Accesses and Writes are the published totals, which
// lag the exact counts by less than obs.SyncBatch per thread.
func (rt *Runtime) LiveStats() Stats { return rt.stats(false) }

func (rt *Runtime) stats(exact bool) Stats {
	rt.flushMetrics(exact)
	s := Stats{VirtualLines: len(rt.vreg.Tracks())}
	s.Accesses, s.Writes = rt.counts(exact)
	rt.sh.ForEachTracked(func(_ uint64, t *detect.Track) {
		s.TrackedLines++
		s.Invalidations += t.Invalidations()
		s.SampledAccesses += t.Recorded()
	})
	for _, v := range rt.vreg.Tracks() {
		s.VirtualInvalidations += v.Invalidations()
	}
	return s
}
