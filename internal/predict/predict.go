// Package predict implements PREDATOR's false sharing prediction (paper §3):
// generalizing one execution to report false sharing that would appear if
// the hardware cache line size doubled or if objects were placed at
// different starting addresses.
//
// The workflow mirrors §3.2: once a line is hot enough, the detailed word
// access information of the line and its neighbours is searched for *hot
// access pairs* — two hot words in adjacent lines, touched by different
// threads, at least one written, close enough to fall into one virtual cache
// line. Each candidate's interleaved invalidations are estimated
// conservatively; pairs estimated above the line's per-word average graduate
// to *verification*: a virtual line is constructed (centered on the pair per
// Figure 4, or the even-aligned doubled line) and real cache invalidations
// on it are tracked with a history table exactly as physical detection does.
package predict

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"predator/internal/cacheline"
	"predator/internal/detect"
	"predator/internal/histtable"
	"predator/internal/obs"
	"predator/internal/obs/flight"
	"predator/internal/resilience"
)

// Kind says which environmental change a prediction models.
type Kind int

const (
	// KindAlignment predicts false sharing under a different object
	// starting address (same line size, shifted placement).
	KindAlignment Kind = iota
	// KindDoubledLine predicts false sharing on hardware whose cache
	// lines are twice as large.
	KindDoubledLine
)

// String names the prediction kind.
func (k Kind) String() string {
	switch k {
	case KindAlignment:
		return "different object alignment"
	case KindDoubledLine:
		return "doubled cache line size"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// HotWord is one hot access: a word whose recorded access count exceeds its
// line's per-word average, owned by a single thread.
type HotWord struct {
	Addr   uint64 // word-aligned address
	Reads  uint64
	Writes uint64
	Thread int // owning thread (never OwnerShared: shared words are true sharing)
}

// Accesses returns the word's total access count.
func (h HotWord) Accesses() uint64 { return h.Reads + h.Writes }

// HotPair is a candidate predicted false sharing instance.
type HotPair struct {
	X, Y     HotWord           // X in the earlier line, Y in the later
	Span     cacheline.Virtual // the virtual line to verify
	Kind     Kind
	Factor   int    // line-size fusion factor for KindDoubledLine (2, 4, ...)
	Estimate uint64 // conservative interleaved invalidation estimate
}

// EstimateInvalidations bounds the cache invalidations a pair of hot words
// could cause on a shared virtual line, assuming the scheduler interleaves
// the two threads perfectly (the paper's conservative assumption, §3.3). If
// neither side writes there is no invalidation; if one side writes, each of
// its writes can invalidate the other's cached copy, bounded by the slower
// side's access count; if both write, invalidations come from both
// directions.
func EstimateInvalidations(x, y HotWord) uint64 {
	if x.Writes == 0 && y.Writes == 0 {
		return 0
	}
	m := min(x.Accesses(), y.Accesses())
	if x.Writes > 0 && y.Writes > 0 {
		return 2 * m
	}
	return m
}

// hotWords extracts the track's hot single-owner words as HotWords.
// Shared-owner hot words are excluded: simultaneous multi-thread access to
// one word is true sharing and must not be predicted as false sharing.
func hotWords(t *detect.Track) []HotWord {
	if t == nil {
		return nil
	}
	var out []HotWord
	for _, w := range t.HotWords() {
		owner := w.EffectiveOwner()
		if owner < 0 {
			continue
		}
		out = append(out, HotWord{
			Addr:   t.WordAddr(w.Index),
			Reads:  w.Reads,
			Writes: w.Writes,
			Thread: owner,
		})
	}
	return out
}

// pairEligible applies the paper's three §3.3 conditions given that x and y
// already sit in adjacent lines: same virtual line feasible (checked by the
// caller via span construction), at least one write, different threads.
func pairEligible(x, y HotWord) bool {
	return x.Thread != y.Thread && (x.Writes > 0 || y.Writes > 0)
}

// FindPairs searches with the paper's default configuration: alignment
// shifts plus the doubled line size.
func FindPairs(cur, adj *detect.Track, geom cacheline.Geometry) []HotPair {
	return FindPairsFused(cur, adj, geom, []int{2})
}

// FindPairsFused searches for potential false sharing between the tracked
// line cur and one adjacent tracked line adj (either side); line adjacency
// and fused-line alignment are derived from the tracks' base addresses.
// Alignment-change candidates are always produced; for every factor in
// fuseFactors, fused-line-size candidates are produced for line groups that
// would merge on hardware with factor-times-larger lines. Candidates whose
// estimated invalidations do not exceed cur's per-word average access count
// are dropped (paper §3.3).
func FindPairsFused(cur, adj *detect.Track, geom cacheline.Geometry, fuseFactors []int) []HotPair {
	if cur == nil || adj == nil {
		return nil
	}
	curIndex := geom.Index(cur.LineBase())
	adjIndex := geom.Index(adj.LineBase())
	if adjIndex != curIndex+1 && curIndex != adjIndex+1 {
		return nil
	}
	lo, hi := cur, adj
	if adjIndex < curIndex {
		lo, hi = adj, cur
	}
	threshold := cur.AverageWordAccesses()
	var out []HotPair
	for _, x := range hotWords(lo) {
		for _, y := range hotWords(hi) {
			if !pairEligible(x, y) {
				continue
			}
			est := EstimateInvalidations(x, y)
			if float64(est) <= threshold {
				continue
			}
			// Alignment-change candidate: the pair must fit in a
			// single line-sized window.
			if y.Addr-x.Addr < geom.Size() {
				if span, err := cacheline.CenteredLine(x.Addr, y.Addr, geom.Size()); err == nil {
					out = append(out, HotPair{X: x, Y: y, Span: span, Kind: KindAlignment, Estimate: est})
				}
			}
			// Fused-line candidates: only line groups that merge at
			// the factor's alignment fuse (factor 2 = the paper's
			// doubled-line case).
			loIdx := min(curIndex, adjIndex)
			for _, factor := range fuseFactors {
				span := cacheline.FusedLine(geom, loIdx, factor)
				if span.Contains(x.Addr) && span.Contains(y.Addr) {
					out = append(out, HotPair{X: x, Y: y, Span: span, Kind: KindDoubledLine, Factor: factor, Estimate: est})
				}
			}
		}
	}
	return out
}

// VTrack verifies one predicted virtual line (paper §3.4): it owns a history
// table and counts real cache invalidations among the accesses that fall
// inside the virtual line's span.
//
//predlint:ignore padcheck allocation-dense per-virtual-line state (one VTrack per predicted line); counters are bumped on the sampled path only
type VTrack struct {
	Pair HotPair // provenance: the hot pair that created this track

	sampler       detect.Sampler
	accesses      atomic.Uint64
	recorded      atomic.Uint64
	invalidations atomic.Uint64
	hist          histtable.Table

	// Flight recording (set at registration, before the track is routed to;
	// nil/zero when flight is disabled). regClock is the access-clock tick
	// the virtual line was registered at — the start of its verification
	// chain; flagSeq/flagClock capture the instant verified invalidations
	// reached the report threshold.
	rec             *flight.Recorder
	regClock        uint64
	reportThreshold uint64
	flagSeq         atomic.Uint64
	flagClock       atomic.Uint64
}

// NewVTrack creates verification state for a candidate pair. Virtual lines
// sample with the same policy as physical tracked lines (§2.4.3), so
// verified invalidation counts scale with the sampling rate exactly like
// observed ones.
func NewVTrack(pair HotPair, sampler detect.Sampler) *VTrack {
	return &VTrack{Pair: pair, sampler: detect.NewSampler(sampler.Window, sampler.Burst)}
}

// Span returns the tracked virtual line.
func (v *VTrack) Span() cacheline.Virtual { return v.Pair.Span }

// HandleAccess feeds one access through the virtual line's history table if
// it overlaps the span, and reports whether it invalidated the virtual line.
func (v *VTrack) HandleAccess(tid int, addr, size uint64, isWrite bool) bool {
	return offer([]*VTrack{v}, tid, addr, size, isWrite) > 0
}

// offer feeds one access to each virtual line in vs that it overlaps and
// returns how many it invalidated; Route and HandleAccess both use it. Only
// the accesses sampling records leave the loop for a call, so a span miss or
// an unsampled access costs no call.
func offer(vs []*VTrack, tid int, addr, size uint64, isWrite bool) int {
	inv := 0
	for _, v := range vs {
		if v.Pair.Span.Overlaps(addr, size) &&
			v.sampler.ShouldRecord(v.accesses.Add(1)) &&
			v.record(tid, addr, isWrite) {
			inv++
		}
	}
	return inv
}

// record applies one sampled access to the history table and the flight
// recorder, and reports whether it invalidated the virtual line.
func (v *VTrack) record(tid int, addr uint64, isWrite bool) bool {
	r := v.recorded.Add(1)
	invalidated := v.hist.Access(tid, isWrite)
	var inv uint64
	if invalidated {
		inv = v.invalidations.Add(1)
	}
	// Decimated like physical tracks: invalidations always land in the ring,
	// ordinary accesses one in flight.RecordStride (see detect.Track).
	if v.rec != nil && (invalidated || r&(flight.RecordStride-1) == 0) {
		w := 0
		if addr > v.Pair.Span.Start {
			w = int((addr - v.Pair.Span.Start) >> cacheline.WordShift)
		}
		tick := v.rec.Record(tid, w, isWrite, invalidated)
		if invalidated && v.reportThreshold != 0 && inv == v.reportThreshold {
			// Add's return value is unique per increment, so exactly one
			// access observes == threshold; the CAS keeps a replayed flag
			// from overwriting the first capture.
			if v.flagSeq.CompareAndSwap(0, inv) {
				v.flagClock.Store(tick)
			}
		}
	}
	return invalidated
}

// RegClock returns the access-clock tick the virtual line was registered at
// (0 when flight recording is disabled).
func (v *VTrack) RegClock() uint64 { return v.regClock }

// FlagInfo returns the clock tick at which verified invalidations reached
// the report threshold and whether that happened yet.
func (v *VTrack) FlagInfo() (clock uint64, flagged bool) {
	if v.flagSeq.Load() == 0 {
		return 0, false
	}
	return v.flagClock.Load(), true
}

// FlightRecords returns the virtual line's recorded access tail, oldest
// first (nil when flight recording is disabled).
func (v *VTrack) FlightRecords() []flight.Record { return v.rec.Snapshot() }

// Invalidations returns verified invalidations on the virtual line.
func (v *VTrack) Invalidations() uint64 { return v.invalidations.Load() }

// Accesses returns the number of accesses that hit the virtual line.
func (v *VTrack) Accesses() uint64 { return v.accesses.Load() }

// Recorded returns how many of those accesses were recorded in detail.
func (v *VTrack) Recorded() uint64 { return v.recorded.Load() }

// Registry routes accesses to the virtual lines they overlap. Virtual lines
// are indexed under every physical line index they intersect, in an
// immutable route table that Add replaces copy-on-write: Route loads the
// current table with one atomic pointer load, binary-searches the access's
// line, and offers the access to that line's virtual lines — no lock, no
// map, and (detect.Sampler's fastmod) no division. What remains per virtual
// line is its access-ordinal add, which sampling and the reported access
// count need.
type Registry struct {
	geom    cacheline.Geometry
	sampler detect.Sampler

	table atomic.Pointer[routeTable] // never nil; replaced whole by Add

	mu    sync.Mutex                 // serializes Add
	spans map[cacheline.Virtual]bool // dedupe: one VTrack per span+kind

	// budget, when non-nil, bounds how many virtual lines may be
	// registered (core.Config.MaxVirtualLines); rejections are counted in
	// the budget and surfaced as degradation events.
	budget *resilience.Budget

	// Flight recording for verification tracks (set before concurrent use;
	// fclock nil when disabled).
	fclock  *flight.Clock
	fdepth  int
	freport uint64 // report threshold captured into each VTrack

	// Observability (nil when unobserved; set before concurrent use).
	o             *obs.Observer
	vlinesG       *obs.Gauge
	vinvC         *obs.Counter
	vrejectC      *obs.Counter
	degradedModeG *obs.Gauge
}

// NewRegistry creates an empty registry under the given physical geometry;
// registered virtual lines sample with the given policy.
func NewRegistry(geom cacheline.Geometry, sampler detect.Sampler) *Registry {
	r := &Registry{
		geom:    geom,
		sampler: sampler,
		spans:   make(map[cacheline.Virtual]bool),
	}
	r.table.Store(&routeTable{})
	return r
}

// routeTable is one published set of virtual lines. It is never modified
// after publication: Add builds a successor, so readers holding an older
// table keep a consistent view.
type routeTable struct {
	lines  []uint64    // physical line indices with virtual lines, ascending
	tracks [][]*VTrack // tracks[i]: the virtual lines overlapping lines[i]
	all    []*VTrack   // every virtual line in registration order
}

// at returns the virtual lines overlapping physical line index l.
func (t *routeTable) at(l uint64) []*VTrack {
	if i, ok := slices.BinarySearch(t.lines, l); ok {
		return t.tracks[i]
	}
	return nil
}

// with returns a new table holding t's virtual lines plus v, indexed under
// lines first..last. t is left unchanged: the slices it holds are cloned or
// shared, never written.
func (t *routeTable) with(v *VTrack, first, last uint64) *routeTable {
	n := &routeTable{
		lines:  slices.Clone(t.lines),
		tracks: slices.Clone(t.tracks),
		all:    append(slices.Clip(t.all), v),
	}
	for l := first; l <= last; l++ {
		i, ok := slices.BinarySearch(n.lines, l)
		if !ok {
			n.lines = slices.Insert(n.lines, i, l)
			n.tracks = slices.Insert(n.tracks, i, nil)
		}
		n.tracks[i] = append(slices.Clip(n.tracks[i]), v)
	}
	return n
}

// SetObserver wires the registry into an observability layer: a gauge of
// registered virtual lines, a verified-invalidation counter, and — when the
// observer traces — virtual-line creation and invalidation events. Call
// before the registry sees concurrent traffic; a nil observer is a no-op.
func (r *Registry) SetObserver(o *obs.Observer) {
	if o == nil {
		return
	}
	r.o = o
	reg := o.Metrics()
	r.vlinesG = reg.Gauge("predator_virtual_lines",
		"Virtual cache lines registered for prediction verification.")
	r.vinvC = reg.Counter("predator_virtual_invalidations_total",
		"Verified cache invalidations on virtual lines.")
	r.vrejectC = reg.Counter("predator_virtual_line_rejections_total",
		"Virtual line registrations refused by the MaxVirtualLines budget.")
	r.degradedModeG = reg.Gauge("predator_degraded_mode",
		"1 once the runtime has shed any detection detail under resource pressure.")
}

// SetBudget bounds virtual-line registrations (nil removes the bound). Call
// before the registry sees concurrent traffic.
func (r *Registry) SetBudget(b *resilience.Budget) { r.budget = b }

// SetFlight arms flight recording on virtual lines registered from now on:
// each new VTrack gets a ring of depth slots on the shared clock and flags
// itself when verified invalidations reach reportThreshold. Call before the
// registry sees concurrent traffic; a nil clock disables recording.
func (r *Registry) SetFlight(clock *flight.Clock, depth int, reportThreshold uint64) {
	r.fclock = clock
	r.fdepth = depth
	r.freport = reportThreshold
}

// Rejected returns how many registrations the budget has refused.
func (r *Registry) Rejected() uint64 {
	if r.budget == nil {
		return 0
	}
	return r.budget.Rejected()
}

// Add registers a verification track for the pair unless an identical span
// is already tracked or the virtual-line budget is exhausted. It returns the
// registered track, or nil when the span was a duplicate or the registration
// was refused (the refusal is counted and surfaced as a degradation event —
// the §3 prediction detail this run gives up under resource pressure).
func (r *Registry) Add(pair HotPair) *VTrack {
	r.mu.Lock()
	if r.spans[pair.Span] {
		r.mu.Unlock()
		return nil
	}
	if r.budget != nil && !r.budget.Acquire() {
		r.mu.Unlock()
		r.vrejectC.Inc()
		r.degradedModeG.Set(1)
		if r.o.Tracing() {
			r.o.Emit(obs.Event{Type: obs.EvDegradation, Phase: "virtual_reject",
				Start: pair.Span.Start, End: pair.Span.End, Kind: pair.Kind.String(),
				Count: r.budget.Rejected(), Virtual: true})
		}
		return nil
	}
	r.spans[pair.Span] = true
	v := NewVTrack(pair, r.sampler)
	if r.fclock != nil {
		v.rec = flight.NewRecorder(r.fclock, r.fdepth)
		v.regClock = r.fclock.Now()
		v.reportThreshold = r.freport
	}
	first := r.geom.Index(pair.Span.Start)
	last := r.geom.Index(pair.Span.End - 1)
	r.table.Store(r.table.Load().with(v, first, last))
	r.mu.Unlock()
	r.vlinesG.Add(1)
	if r.o.Tracing() {
		r.o.Emit(obs.Event{Type: obs.EvVirtualLine, Start: pair.Span.Start, End: pair.Span.End,
			Count: pair.Estimate, Kind: pair.Kind.String()})
	}
	return v
}

// Route forwards an access to every virtual line it overlaps. It returns
// the number of virtual-line invalidations the access caused.
func (r *Registry) Route(tid int, addr, size uint64, isWrite bool) int {
	t := r.table.Load()
	line := r.geom.Index(addr)
	tracks := t.at(line)
	var spill []*VTrack
	if size > 0 {
		if last := r.geom.Index(addr + size - 1); last != line {
			spill = t.at(last)
		}
	}
	inv := offer(tracks, tid, addr, size, isWrite)
	for _, v := range spill {
		// Tracks registered under both lines were handled above.
		if !slices.Contains(tracks, v) && v.HandleAccess(tid, addr, size, isWrite) {
			inv++
		}
	}
	if inv > 0 && r.o != nil {
		r.vinvC.Add(uint64(inv))
		if r.o.Tracing() {
			r.o.Emit(obs.Event{Type: obs.EvInvalidation, TID: tid, Addr: addr,
				Count: uint64(inv), Virtual: true})
		}
	}
	return inv
}

// VSnapshot is an immutable point-in-time copy of one virtual line's
// verification state, shaped for the live diagnostics API (JSON field names
// are part of the /hotlines schema).
type VSnapshot struct {
	Start         uint64 `json:"start"`            // span start address
	End           uint64 `json:"end"`              // span end (exclusive)
	Kind          string `json:"kind"`             // Kind.String()
	Factor        int    `json:"factor,omitempty"` // fusion factor (doubled-line kinds)
	Estimate      uint64 `json:"estimate"`         // conservative invalidation estimate (§3.3)
	Accesses      uint64 `json:"accesses"`         // accesses overlapping the span
	Recorded      uint64 `json:"recorded"`         // post-sampling recorded accesses
	Invalidations uint64 `json:"invalidations"`    // verified invalidations (§3.4)
}

// snapshotOf copies one VTrack's counters.
func snapshotOf(v *VTrack) VSnapshot {
	return VSnapshot{
		Start:         v.Pair.Span.Start,
		End:           v.Pair.Span.End,
		Kind:          v.Pair.Kind.String(),
		Factor:        v.Pair.Factor,
		Estimate:      v.Pair.Estimate,
		Accesses:      v.Accesses(),
		Recorded:      v.Recorded(),
		Invalidations: v.Invalidations(),
	}
}

// SnapshotsOverlapping returns snapshots of every virtual line overlapping
// the address range [start, end), deduplicated (a virtual line spanning two
// physical lines appears once). Safe for concurrent use with Route/Add.
func (r *Registry) SnapshotsOverlapping(start, end uint64) []VSnapshot {
	if end <= start {
		return nil
	}
	t := r.table.Load()
	last := r.geom.Index(end - 1)
	i, _ := slices.BinarySearch(t.lines, r.geom.Index(start))
	var out []VSnapshot
	seen := make(map[*VTrack]bool)
	for ; i < len(t.lines) && t.lines[i] <= last; i++ {
		for _, v := range t.tracks[i] {
			if seen[v] {
				continue
			}
			seen[v] = true
			out = append(out, snapshotOf(v))
		}
	}
	return out
}

// Snapshots returns snapshots of every registered virtual line in
// registration order.
func (r *Registry) Snapshots() []VSnapshot {
	all := r.table.Load().all
	out := make([]VSnapshot, len(all))
	for i, v := range all {
		out[i] = snapshotOf(v)
	}
	return out
}

// Empty reports whether no virtual lines are registered.
func (r *Registry) Empty() bool { return len(r.table.Load().all) == 0 }

// Tracks returns all registered verification tracks in registration order.
func (r *Registry) Tracks() []*VTrack { return slices.Clone(r.table.Load().all) }
