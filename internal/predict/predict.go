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
	Factor   int    // KindDoubledLine: how many physical lines Span fuses (2 from FindPairs)
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
	hot := t.HotWords()
	out := make([]HotWord, 0, len(hot))
	for _, w := range hot {
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
	his := hotWords(hi)
	var out []HotPair
	for _, x := range hotWords(lo) {
		for _, y := range his {
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

	// Ordinal holds the sampling policy and the virtual line's access count,
	// which counts on the counters of the 8-byte words the span overlaps
	// when sampling skips accesses.
	detect.Ordinal
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

// newVTrack creates verification state for a candidate pair. Virtual lines
// sample with the same policy as physical tracked lines (§2.4.3), so
// verified invalidation counts scale with the sampling rate exactly like
// observed ones.
func newVTrack(pair HotPair, sampler detect.Sampler) *VTrack {
	return &VTrack{Pair: pair, Ordinal: detect.NewOrdinal(sampler)}
}

// Span returns the tracked virtual line.
func (v *VTrack) Span() cacheline.Virtual { return v.Pair.Span }

// offer feeds one access to each virtual line in vs that it overlaps and
// returns how many it invalidated. Only the accesses sampling records, or
// that pass a line's allowance, leave the loop for a call, so a span miss
// or an unrecorded access costs no call.
func (r *Registry) offer(vs []*VTrack, tid int, addr, size uint64, isWrite bool) int {
	inv := 0
	for _, v := range vs {
		if !v.Pair.Span.Overlaps(addr, size) {
			continue
		}
		n, fold := v.Count()
		if fold {
			if _, vinv := r.settle(nil, -1, v, tid, addr, size, isWrite); vinv {
				inv++
			}
			continue
		}
		if s := v.SamplerConfig(); n != 0 && s.ShouldRecord(n) {
			if v.record(tid, addr, isWrite) {
				inv++
			}
			if s.SkipAfter(n) != 0 {
				// The line leaves its burst: reopen its words.
				r.settle(nil, -1, nil, tid, addr, size, isWrite)
			}
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

// Recorded returns how many of those accesses were recorded in detail.
func (v *VTrack) Recorded() uint64 { return v.recorded.Load() }

// Registry routes accesses to the virtual lines they overlap. Virtual lines
// are indexed under every physical line index they intersect, in an
// immutable route table that Add replaces copy-on-write: Route loads the
// current table with one atomic pointer load, binary-searches the access's
// line, and offers the access to that line's virtual lines — no lock, no
// map, and (detect.Sampler's fastmod) no division.
//
// Each virtual line needs every access's ordinal only to decide whether
// sampling records it, and most ordinals fall in runs that sampling skips.
// So each physical line with virtual lines whose track SetTracks names has
// one counter per 8-byte word (detect.WordCounter), which the track joins:
// core's access path counts an aligned word access to an open word for the
// physical line and its virtual lines with one add on that word, which sits
// on a line only the word's writers touch. Route counts every access it gets
// on the overlapping virtual lines' own ordinals (detect.Ordinal), as does a
// virtual line over a line without a track. A fold, under mu, moves each
// word's count into the ordinals of the lines counting on it; a plan then
// gives each word the smallest share among its lines of half of their
// current unrecorded runs, and leaves the rest of each line's run as its
// allowance for accesses counted directly. Both run on Add, when a word
// passes its limit, when a direct count passes a line's allowance, and when
// a line leaves its burst, and whenever an access is decided the ordinals it
// is decided on are exact, so a serial access stream is sampled exactly as
// with one add per line.
type Registry struct {
	geom    cacheline.Geometry
	sampler detect.Sampler
	// track returns the tracked line at a line base, nil when untracked or
	// when SetTracks was not called.
	track func(lineBase uint64) *detect.Track

	table atomic.Pointer[routeTable] // never nil; replaced whole by Add

	mu    sync.Mutex                 // serializes Add, folds and plans
	spans map[cacheline.Virtual]bool // dedupe: one VTrack per span+kind

	// Flight recording for verification tracks (set before concurrent use;
	// fclock nil when disabled).
	fclock  *flight.Clock
	fdepth  int
	freport uint64 // report threshold captured into each VTrack

	// Observability (nil when unobserved; set before concurrent use).
	vlinesG *obs.Gauge
	vinvC   *obs.Counter
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
// table keep a consistent view. Only the word counters are shared between
// versions.
type routeTable struct {
	lines  []uint64          // physical line indices with virtual lines, ascending
	tracks [][]*VTrack       // tracks[i]: the virtual lines overlapping lines[i]
	words  []lineWords       // words[i]: lines[i]'s word counters
	all    []*VTrack         // every virtual line in registration order
	ords   []*detect.Ordinal // every ordinal counting on words: tracks' and virtual lines'
}

// lineWords is one physical line's word counters, allocated once and kept
// by every later table, and this table's lists of the lines counting on
// each word. ctr is nil when sampling records every access or the line has
// no track to join the counters.
type lineWords struct {
	ctr  []detect.WordCounter
	ords [][]*detect.Ordinal // ords[w]: the ordinals counting on word w, the track's first
}

// search returns the position of physical line index l in t.lines, or
// where it would be inserted, and whether it is there. It is a plain
// lower-bound loop rather than slices.BinarySearch, whose generic call the
// compiler does not inline into Route.
func (t *routeTable) search(l uint64) (int, bool) {
	lo, hi := 0, len(t.lines)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.lines[m] < l {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.lines) && t.lines[lo] == l
}

// at returns the virtual lines overlapping physical line index l.
func (t *routeTable) at(l uint64) []*VTrack {
	if i, ok := t.search(l); ok {
		return t.tracks[i]
	}
	return nil
}

// with returns a new table holding t's virtual lines plus v, indexed under
// lines first..last, with v counting on the words it overlaps. A line new to
// the index gets word counters when counting is set and r names its track,
// which joins them. t is left unchanged: the slices it holds are cloned or
// shared, never written.
func (t *routeTable) with(r *Registry, v *VTrack, first, last uint64, counting bool) *routeTable {
	n := &routeTable{
		lines:  slices.Clone(t.lines),
		tracks: slices.Clone(t.tracks),
		words:  slices.Clone(t.words),
		all:    append(slices.Clip(t.all), v),
		ords:   slices.Clip(t.ords),
	}
	var vctr []*detect.WordCounter
	for l := first; l <= last; l++ {
		i, ok := n.search(l)
		if !ok {
			n.lines = slices.Insert(n.lines, i, l)
			n.tracks = slices.Insert(n.tracks, i, nil)
			var ws lineWords
			if counting {
				var joined *detect.Track
				if ws, joined = r.newLineWords(l); joined != nil {
					n.ords = append(n.ords, &joined.Ordinal)
				}
			}
			n.words = slices.Insert(n.words, i, ws)
		}
		n.tracks[i] = append(slices.Clip(n.tracks[i]), v)
		ws := &n.words[i]
		if ws.ctr == nil {
			continue
		}
		ws.ords = slices.Clone(ws.ords)
		for w := range ws.ctr {
			if v.Pair.Span.Overlaps(r.geom.Base(l)+uint64(w)*cacheline.WordSize, cacheline.WordSize) {
				ws.ords[w] = append(slices.Clip(ws.ords[w]), &v.Ordinal)
				vctr = append(vctr, &ws.ctr[w])
			}
		}
	}
	if vctr != nil {
		v.Join(vctr, nil)
		n.ords = append(n.ords, &v.Ordinal)
	}
	return n
}

// newLineWords allocates the word counters of physical line index l, all
// closed, and lets the line's track join them; it returns the track. A line
// without a track gets no counters, and its virtual lines count each of its
// accesses directly.
func (r *Registry) newLineWords(l uint64) (lineWords, *detect.Track) {
	var t *detect.Track
	if r.track != nil {
		t = r.track(r.geom.Base(l))
	}
	if t == nil {
		return lineWords{}, nil
	}
	n := r.geom.WordsPerLine()
	ws := lineWords{ctr: make([]detect.WordCounter, n), ords: make([][]*detect.Ordinal, n)}
	ctr := make([]*detect.WordCounter, n)
	for w := range ctr {
		ctr[w] = &ws.ctr[w]
		ws.ords[w] = []*detect.Ordinal{&t.Ordinal}
	}
	t.Join(ctr, r)
	return ws, t
}

// SetObserver wires the registry into an observability layer: a gauge of
// registered virtual lines and a verified-invalidation counter. Call before
// the registry sees concurrent traffic; a nil observer is a no-op.
func (r *Registry) SetObserver(o *obs.Observer) {
	if o == nil {
		return
	}
	reg := o.Metrics()
	r.vlinesG = reg.Gauge("predator_virtual_lines",
		"Virtual cache lines registered for prediction verification.")
	r.vinvC = reg.Counter("predator_virtual_invalidations_total",
		"Verified cache invalidations on virtual lines.")
}

// SetTracks names the tracked physical lines: lookup returns the track of
// the line at a line base address, or nil. Only a named track's line gets
// word counters, which the track joins (see Registry). Call before the
// registry sees concurrent traffic; without it, as in perfbench's ledger,
// every physical and virtual line counts each of its accesses itself.
func (r *Registry) SetTracks(lookup func(lineBase uint64) *detect.Track) {
	r.track = lookup
}

// SetFlight arms flight recording on virtual lines registered from now on:
// each new VTrack gets a ring of depth slots on the shared clock and flags
// itself when verified invalidations reach reportThreshold. Call before the
// registry sees concurrent traffic; a nil clock disables recording.
func (r *Registry) SetFlight(clock *flight.Clock, depth int, reportThreshold uint64) {
	r.fclock = clock
	r.fdepth = depth
	r.freport = reportThreshold
}

// Add registers a verification track for the pair unless an identical span
// is already tracked. It returns the registered track, or nil when the span
// was a duplicate.
func (r *Registry) Add(pair HotPair) *VTrack {
	r.mu.Lock()
	if r.spans[pair.Span] {
		r.mu.Unlock()
		return nil
	}
	r.spans[pair.Span] = true
	v := newVTrack(pair, r.sampler)
	if r.fclock != nil {
		v.rec = flight.NewRecorder(r.fclock, r.fdepth)
		v.regClock = r.fclock.Now()
		v.reportThreshold = r.freport
	}
	first := r.geom.Index(pair.Span.Start)
	last := r.geom.Index(pair.Span.End - 1)
	// Fold before publishing: counts pending on words v overlaps belong to
	// the lines already registered, not to v.
	t := r.table.Load()
	r.fold(t)
	t = t.with(r, v, first, last, r.sampler.Window > r.sampler.Burst)
	r.table.Store(t)
	r.plan(t)
	r.mu.Unlock()
	r.vlinesG.Add(1)
	return v
}

// Route offers an access to every virtual line it overlaps, each of which
// counts it on its own ordinal; an access core counted on a word never
// reaches it. It returns the number of virtual-line invalidations the
// access caused.
func (r *Registry) Route(tid int, addr, size uint64, isWrite bool) int {
	t := r.table.Load()
	line := r.geom.Index(addr)
	tracks := t.at(line)
	inv := r.offer(tracks, tid, addr, size, isWrite)
	if size > 0 {
		if last := r.geom.Index(addr + size - 1); last != line {
			spill := t.at(last)
			for k, v := range spill {
				// Tracks registered under both lines were handled above.
				if !slices.Contains(tracks, v) {
					inv += r.offer(spill[k:k+1], tid, addr, size, isWrite)
				}
			}
		}
	}
	return r.counted(inv)
}

// counted adds inv to the verified-invalidation counter and returns it.
func (r *Registry) counted(inv int) int {
	if inv > 0 {
		r.vinvC.Add(uint64(inv))
	}
	return inv
}

// settle is word counting's slow path. Under mu it folds every word. For
// an access to word of t's line that passed the word's limit, the virtual
// lines counting on the word give the access back, to count it when core
// routes it. It then decides the access on the folded ordinal of t and of
// v, each when not nil, and replans. It returns whether the access
// invalidated t's line and v.
func (r *Registry) settle(t *detect.Track, word int, v *VTrack, tid int, addr, size uint64, isWrite bool) (tinv, vinv bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tab := r.table.Load()
	r.fold(tab)
	if t != nil {
		if word >= 0 {
			if i, ok := tab.search(r.geom.Index(t.LineBase())); ok {
				// The track's ordinal comes first; the virtual lines follow.
				for _, o := range tab.words[i].ords[word][1:] {
					o.GiveBack()
				}
			}
		}
		tinv = t.Decide(tid, addr, size, isWrite)
	}
	if v != nil && v.SamplerConfig().ShouldRecord(v.Folded()) {
		vinv = v.record(tid, addr, isWrite)
	}
	r.plan(tab)
	return tinv, vinv
}

// Settle is the slow path of a track that joined its line's word counters
// (detect.Folder), and of core's access path when an access to the line's
// word passes that word's limit: see settle. Core routes the access after.
func (r *Registry) Settle(t *detect.Track, word int, tid int, addr, size uint64, isWrite bool) bool {
	tinv, _ := r.settle(t, word, nil, tid, addr, size, isWrite)
	return tinv
}

// ResetTrack resets a tracked line's state (detect.Track.Reset). When the
// track has joined its line's word counters, the counts pending on the
// words are folded first, so that the reset clears the track's share of
// them, and the words are replanned from the reset ordinal.
func (r *Registry) ResetTrack(t *detect.Track) {
	if !t.Joined() {
		t.Reset()
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tab := r.table.Load()
	r.fold(tab)
	t.Reset()
	r.plan(tab)
}

// fold moves each word's pending count into the ordinals of the lines
// counting on the word and closes the word. Call with mu held.
func (r *Registry) fold(t *routeTable) {
	for _, ws := range t.words {
		for w := range ws.ctr {
			if c := ws.ctr[w].Take(); c != 0 {
				for _, o := range ws.ords[w] {
					o.Fold(c)
				}
			}
		}
	}
}

// plan reopens the words after a fold. Each line with an unrecorded run
// ahead of it shares half of that run evenly among its words; each word
// takes the smallest share among its lines, and the rest of each line's run
// is its allowance. A line whose share is 0 — inside its burst, or too close
// to it — keeps its words closed and counts exactly. Call with mu held.
func (r *Registry) plan(t *routeTable) {
	for _, o := range t.ords {
		o.Plan()
	}
	for _, ws := range t.words {
		for _, os := range ws.ords {
			lim := wordLimit(os)
			for _, o := range os {
				o.Take(lim)
			}
		}
	}
	// Each allowance is published before any of the line's words opens:
	// until then its direct accesses are decided on their own ordinals.
	for _, o := range t.ords {
		o.Open()
	}
	for _, ws := range t.words {
		for w, os := range ws.ords {
			ws.ctr[w].Reopen(wordLimit(os))
		}
	}
}

// wordLimit returns the smallest share among a word's lines, 0 when it has
// none.
func wordLimit(os []*detect.Ordinal) uint64 {
	if len(os) == 0 {
		return 0
	}
	lim := os[0].Share()
	for _, o := range os[1:] {
		lim = min(lim, o.Share())
	}
	return lim
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
	i, _ := t.search(r.geom.Index(start))
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
