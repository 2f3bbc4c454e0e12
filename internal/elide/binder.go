package elide

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"predator/internal/cacheline"
	"predator/internal/mem"
)

// Index is a manifest compiled for binding: its bindable entries keyed by
// global label and by allocation site, and a cache of the runtime sites
// already resolved against them. It holds no heap state, so one Index can
// serve every run in a process; each run's Binder keeps only the spans it
// bound. Safe for concurrent use.
type Index struct {
	lineSize uint64
	entries  int

	byLabel map[string]string // global label -> mode
	sites   []siteRule        // callsite-keyed entries

	mu    sync.Mutex
	cache map[string]string // resolved runtime callsite -> mode ("" = no match)
}

type siteRule struct {
	site string // normalized "file:line"
	mode string
}

// Compile validates the manifest's schema and indexes its bindable entries.
// The line size is checked later, against the heap a Binder is made for.
func Compile(m *Manifest) (*Index, error) {
	if err := m.Validate(m.LineSize); err != nil {
		return nil, err
	}
	x := &Index{
		lineSize: m.LineSize,
		entries:  len(m.Entries),
		byLabel:  map[string]string{},
		cache:    map[string]string{},
	}
	for _, e := range m.Entries {
		if e.Label != "" {
			x.byLabel[e.Label] = e.Mode
		}
		if e.Callsite != "" {
			x.sites = append(x.sites, siteRule{site: e.Callsite, mode: e.Mode})
		}
	}
	return x, nil
}

// LineSize returns the cache line size the manifest's proofs assumed.
func (x *Index) LineSize() uint64 { return x.lineSize }

// Entries returns how many entries the manifest holds, advisory ones
// included.
func (x *Index) Entries() int { return x.entries }

// MarginLines is the safety margin, in whole lines, that a binder trims from
// each end of a proven object's interior. Prediction's virtual lines span at
// most two physical lines (predict.FindPairs), so with one line of margin a
// doubled or shifted line can never straddle an elided line and a foreign
// one.
const MarginLines = 1

// Binder makes an empty binder for a heap with the given geometry. A
// line-size mismatch is a staleness error: the proofs were made for other
// lines and must not bind.
func (x *Index) Binder(geom cacheline.Geometry) (*Binder, error) {
	if x.lineSize != geom.Size() {
		return nil, lineSizeError(x.lineSize, geom.Size())
	}
	return &Binder{
		idx:      x,
		lineSize: geom.Size(),
		margin:   MarginLines * geom.Size(),
	}, nil
}

// modeFor resolves the entry mode for an object: globals match by label,
// heap objects by allocation-callsite site matching (cached per resolved
// runtime site — every allocation from one source line shares it).
func (x *Index) modeFor(o mem.Object) string {
	if o.Global {
		return x.byLabel[o.Label]
	}
	if len(x.sites) == 0 || o.Callsite.IsZero() {
		return ""
	}
	leaf := o.Callsite.Leaf()
	site := fmt.Sprintf("%s:%d", leaf.File, leaf.Line)
	x.mu.Lock()
	mode, ok := x.cache[site]
	x.mu.Unlock()
	if ok {
		return mode
	}
	for _, r := range x.sites {
		if SameSite(r.site, site) {
			mode = r.mode
			break
		}
	}
	x.mu.Lock()
	x.cache[site] = mode
	x.mu.Unlock()
	return mode
}

// Binder attaches an Index's entries to one heap's live objects and
// answers the front-end's hot-path question: "is this access provably
// uninteresting?". Entries bind by allocation callsite (heap objects) or by
// label (globals); the bound address spans are clipped to lines wholly
// interior to the object and MarginLines lines away from either end, so an
// elided access can never share a physical line — or a predicted virtual
// line, which spans at most two — with any other object's traffic.
//
// The span set is a copy-on-write sorted slice behind an atomic pointer:
// lookups are a lock-free binary search, rebinds (alloc/free hooks, cold
// path) serialize on a mutex.
type Binder struct {
	idx      *Index
	lineSize uint64
	margin   uint64 // bytes trimmed from each end of the interior span

	mu    sync.Mutex
	spans atomic.Pointer[[]span]

	_      [56]byte
	bound  atomic.Uint64 // objects bound to a manifest entry
	_      [56]byte
	active atomic.Uint64 // spans currently installed
}

// span is one elidable address range. readsOnly spans elide loads only.
type span struct {
	start, end uint64
	readsOnly  bool
}

// NewBinder compiles the manifest and makes a binder for the geometry (see
// Compile and Index.Binder).
func NewBinder(m *Manifest, geom cacheline.Geometry) (*Binder, error) {
	x, err := Compile(m)
	if err != nil {
		return nil, err
	}
	return x.Binder(geom)
}

// Attach subscribes the binder to the heap's alloc/free hooks and binds the
// objects already live (replayed traces import allocations before the event
// stream; a live harness attaches before the workload allocates).
func (b *Binder) Attach(h *mem.Heap) {
	h.AddAllocHook(b.Bind)
	h.AddFreeHook(b.Unbind)
	for _, o := range h.ObjectsOverlapping(h.Base(), h.Base()+h.Size()) {
		b.Bind(o)
	}
}

// Bind matches one object against the manifest and, on a hit, installs its
// interior elidable span. An object too small to keep an interior past the
// margins is skipped before its callsite is resolved. Safe for concurrent
// use (heap hooks run outside the heap lock).
func (b *Binder) Bind(o mem.Object) {
	lo := b.alignUp(o.Start) + b.margin
	hi := b.alignDown(o.End())
	if hi < b.margin || lo >= hi-b.margin {
		return // object too small to have a protected interior
	}
	hi -= b.margin
	mode := b.idx.modeFor(o)
	if mode == "" {
		return
	}
	b.bound.Add(1)
	b.insert(span{start: lo, end: hi, readsOnly: mode == ModeReads})
}

// Unbind removes any spans inside a freed object. The address range may be
// recycled for an unproven object, so elision must stop immediately. A free
// that touches no span (the common case) takes no lock and copies nothing.
func (b *Binder) Unbind(start, size uint64) {
	end := start + size
	if !overlapsAny(b.spans.Load(), start, end) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	old := *b.spans.Load()
	next := make([]span, 0, len(old))
	for _, s := range old {
		if s.start < end && start < s.end {
			continue
		}
		next = append(next, s)
	}
	b.spans.Store(&next)
	b.active.Store(uint64(len(next)))
}

// overlapsAny reports whether any span in *sp intersects [start, end).
func overlapsAny(sp *[]span, start, end uint64) bool {
	if sp == nil {
		return false
	}
	for _, s := range *sp {
		if s.start < end && start < s.end {
			return true
		}
	}
	return false
}

// Elidable reports whether the whole access [addr, addr+size) falls inside
// one bound span whose mode covers the access type. Lock-free; called on
// the instrumentation hot path.
func (b *Binder) Elidable(addr, size uint64, isWrite bool) bool {
	sp := b.spans.Load()
	if sp == nil {
		return false
	}
	spans := *sp
	// Binary search for the first span starting after addr; the span
	// before it is the only one that can contain the access.
	lo, hi := 0, len(spans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if spans[m].start > addr {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == 0 {
		return false
	}
	s := spans[lo-1]
	if addr+size > s.end {
		return false
	}
	return !isWrite || !s.readsOnly
}

// Bound returns how many live-object bindings the manifest produced.
func (b *Binder) Bound() uint64 { return b.bound.Load() }

// Active returns how many elidable spans are currently installed.
func (b *Binder) Active() uint64 { return b.active.Load() }

// insert adds a span copy-on-write, keeping the slice sorted by start.
func (b *Binder) insert(s span) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var old []span
	if p := b.spans.Load(); p != nil {
		old = *p
	}
	i := sort.Search(len(old), func(i int) bool { return old[i].start >= s.start })
	next := make([]span, 0, len(old)+1)
	next = append(next, old[:i]...)
	next = append(next, s)
	next = append(next, old[i:]...)
	b.spans.Store(&next)
	b.active.Store(uint64(len(next)))
}

func (b *Binder) alignUp(a uint64) uint64 {
	return (a + b.lineSize - 1) &^ (b.lineSize - 1)
}

func (b *Binder) alignDown(a uint64) uint64 {
	return a &^ (b.lineSize - 1)
}
