package predict

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"predator/internal/cacheline"
	"predator/internal/detect"
)

var geom = cacheline.MustGeometry(64)

const base = uint64(0x400000000)

// mkTrack builds a track for the line with the given index and applies
// accesses: each spec is {thread, wordIndex, writes, reads}.
func mkTrack(lineIndex uint64, specs ...[4]int) *detect.Track {
	t := detect.NewTrack(base+lineIndex*64, geom, detect.Sampler{})
	for _, s := range specs {
		addr := base + lineIndex*64 + uint64(s[1]*8)
		for i := 0; i < s[2]; i++ {
			t.HandleAccess(s[0], addr, 8, true)
		}
		for i := 0; i < s[3]; i++ {
			t.HandleAccess(s[0], addr, 8, false)
		}
	}
	return t
}

func TestEstimateInvalidations(t *testing.T) {
	cases := []struct {
		x, y HotWord
		want uint64
	}{
		{HotWord{Reads: 10}, HotWord{Reads: 20}, 0},                     // no writes
		{HotWord{Writes: 10}, HotWord{Reads: 20}, 10},                   // one writer
		{HotWord{Writes: 5, Reads: 5}, HotWord{Writes: 30}, 20},         // both write: 2*min(10,30)
		{HotWord{Writes: 100}, HotWord{Writes: 100}, 200},               // symmetric writers
		{HotWord{Reads: 1000}, HotWord{Writes: 3}, 3},                   // tiny writer
		{HotWord{Writes: 0, Reads: 0}, HotWord{Writes: 0, Reads: 0}, 0}, // empty
		{HotWord{Writes: 1}, HotWord{Writes: 1}, 2},                     // minimal both-write
	}
	for i, c := range cases {
		if got := EstimateInvalidations(c.x, c.y); got != c.want {
			t.Errorf("case %d: estimate = %d, want %d", i, got, c.want)
		}
	}
}

func TestFindPairsAdjacentWriters(t *testing.T) {
	// Thread 1 writes the last word of line 0; thread 2 writes the first
	// word of line 1. This is the canonical latent false sharing: no
	// physical sharing, but any placement shift creates it.
	cur := mkTrack(0, [4]int{1, 7, 100, 0})
	adj := mkTrack(1, [4]int{2, 0, 100, 0})
	pairs := FindPairs(cur, adj, geom)
	if len(pairs) == 0 {
		t.Fatal("no pairs found for adjacent hot writers")
	}
	var alignment, doubled *HotPair
	for i := range pairs {
		switch pairs[i].Kind {
		case KindAlignment:
			alignment = &pairs[i]
		case KindDoubledLine:
			doubled = &pairs[i]
		}
	}
	if alignment == nil {
		t.Fatal("no alignment-change candidate")
	}
	if doubled == nil {
		t.Fatal("no doubled-line candidate (lines 0,1 must fuse)")
	}
	if alignment.X.Addr != base+56 || alignment.Y.Addr != base+64 {
		t.Errorf("pair = %#x,%#x", alignment.X.Addr, alignment.Y.Addr)
	}
	if !alignment.Span.Contains(alignment.X.Addr) || !alignment.Span.Contains(alignment.Y.Addr) {
		t.Error("span does not contain the pair")
	}
	if alignment.Estimate != 200 {
		t.Errorf("estimate = %d, want 200", alignment.Estimate)
	}
	if doubled.Span.Start != base || doubled.Span.Size() != 128 {
		t.Errorf("doubled span = %v", doubled.Span)
	}
}

func TestFindPairsOddEvenParity(t *testing.T) {
	// Lines 1 and 2 do NOT fuse under doubled line size (only 2i, 2i+1),
	// so only the alignment candidate should appear.
	cur := mkTrack(1, [4]int{1, 7, 100, 0})
	adj := mkTrack(2, [4]int{2, 0, 100, 0})
	pairs := FindPairs(cur, adj, geom)
	for _, p := range pairs {
		if p.Kind == KindDoubledLine {
			t.Errorf("lines 1,2 produced a doubled-line candidate: %+v", p)
		}
	}
	found := false
	for _, p := range pairs {
		if p.Kind == KindAlignment {
			found = true
		}
	}
	if !found {
		t.Error("alignment candidate missing")
	}
}

func TestFindPairsRequiresDifferentThreads(t *testing.T) {
	cur := mkTrack(0, [4]int{1, 7, 100, 0})
	adj := mkTrack(1, [4]int{1, 0, 100, 0}) // same thread
	if pairs := FindPairs(cur, adj, geom); len(pairs) != 0 {
		t.Errorf("same-thread pair predicted: %+v", pairs)
	}
}

func TestFindPairsRequiresAWrite(t *testing.T) {
	cur := mkTrack(0, [4]int{1, 7, 0, 100}) // reads only
	adj := mkTrack(1, [4]int{2, 0, 0, 100}) // reads only
	if pairs := FindPairs(cur, adj, geom); len(pairs) != 0 {
		t.Errorf("read-read pair predicted: %+v", pairs)
	}
}

func TestFindPairsIgnoresSharedWords(t *testing.T) {
	// The hot word in line 1 is accessed by two threads -> true sharing,
	// never a prediction candidate.
	cur := mkTrack(0, [4]int{1, 7, 100, 0})
	adj := mkTrack(1, [4]int{2, 0, 50, 0}, [4]int{3, 0, 50, 0})
	for _, p := range FindPairs(cur, adj, geom) {
		if p.Y.Addr == base+64 {
			t.Errorf("shared word paired: %+v", p)
		}
	}
}

func TestFindPairsColdWordsExcluded(t *testing.T) {
	// The line-1 word is cold relative to its line average (one access
	// among many elsewhere).
	cur := mkTrack(0, [4]int{1, 7, 100, 0})
	adj := mkTrack(1, [4]int{2, 0, 1, 0}, [4]int{2, 3, 100, 0}, [4]int{2, 4, 100, 0})
	for _, p := range FindPairs(cur, adj, geom) {
		if p.Y.Addr == base+64 {
			t.Errorf("cold word paired: %+v", p)
		}
	}
}

func TestFindPairsNonAdjacentRejected(t *testing.T) {
	cur := mkTrack(0, [4]int{1, 7, 100, 0})
	far := mkTrack(5, [4]int{2, 0, 100, 0})
	if pairs := FindPairs(cur, far, geom); pairs != nil {
		t.Errorf("non-adjacent lines paired: %+v", pairs)
	}
}

func TestFindPairsNilTracks(t *testing.T) {
	cur := mkTrack(0, [4]int{1, 7, 100, 0})
	if FindPairs(cur, nil, geom) != nil {
		t.Error("nil adjacent produced pairs")
	}
	if FindPairs(nil, cur, geom) != nil {
		t.Error("nil cur produced pairs")
	}
}

// The search snapshots each line's hot words once: beyond growing its
// result, it allocates no more with four hot words on the lower line than
// with one.
func TestFindPairsSnapshotsHotWordsOnce(t *testing.T) {
	factors := []int{2}
	hi := mkTrack(1, [4]int{2, 0, 100, 0})
	var first float64
	for _, k := range []int{1, 2, 4} {
		var specs [][4]int
		for w := 8 - k; w < 8; w++ {
			specs = append(specs, [4]int{1, w, 100, 0})
		}
		lo := mkTrack(0, specs...)
		var pairs []HotPair
		allocs := testing.AllocsPerRun(20, func() {
			pairs = FindPairsFused(lo, hi, geom, factors)
		})
		if len(pairs) != 2*k {
			t.Fatalf("%d hot words: %d pairs, want %d", k, len(pairs), 2*k)
		}
		// Allocations of appending len(pairs) pairs to a nil slice.
		var grown []HotPair
		for range pairs {
			if len(grown) == cap(grown) {
				allocs--
			}
			grown = append(grown, HotPair{})
		}
		if k == 1 {
			first = allocs
		} else if allocs != first {
			t.Errorf("%d hot words: %v allocations besides the result, %v with one", k, allocs, first)
		}
	}
}

func TestFindPairsLowEstimateDropped(t *testing.T) {
	// Hot pair accesses are small while the line average is high, so the
	// estimate cannot exceed the threshold.
	cur := mkTrack(0,
		[4]int{1, 0, 1000, 0}, [4]int{1, 1, 1000, 0}, [4]int{1, 2, 1000, 0},
		[4]int{1, 3, 1000, 0}, [4]int{1, 4, 1000, 0}, [4]int{1, 5, 1000, 0},
		[4]int{1, 6, 1000, 0}, [4]int{1, 7, 1001, 0})
	adj := mkTrack(1, [4]int{2, 0, 10, 0})
	for _, p := range FindPairs(cur, adj, geom) {
		if p.Y.Accesses() == 10 {
			t.Errorf("low-estimate pair survived: %+v", p)
		}
	}
}

func TestVTrackVerification(t *testing.T) {
	r := NewRegistry(geom, detect.Sampler{})
	v := r.Add(HotPair{
		X:    HotWord{Addr: base + 56, Writes: 100, Thread: 1},
		Y:    HotWord{Addr: base + 64, Writes: 100, Thread: 2},
		Span: cacheline.NewVirtual(base+28, 64),
		Kind: KindAlignment,
	})
	// Interleaved writes inside the span invalidate.
	for i := 0; i < 10; i++ {
		r.Route(1, base+56, 8, true)
		r.Route(2, base+64, 8, true)
	}
	if v.Invalidations() != 19 {
		t.Errorf("invalidations = %d, want 19", v.Invalidations())
	}
	if v.Accesses() != 20 {
		t.Errorf("accesses = %d, want 20", v.Accesses())
	}
	// Accesses outside the span are ignored, on an indexed line or not.
	before := v.Accesses()
	r.Route(3, base+8, 8, true)
	r.Route(3, base+500, 8, true)
	if v.Accesses() != before {
		t.Error("out-of-span access counted")
	}
}

func TestRegistryRouting(t *testing.T) {
	r := NewRegistry(geom, detect.Sampler{})
	pair := HotPair{
		X:    HotWord{Addr: base + 56, Writes: 10, Thread: 1},
		Y:    HotWord{Addr: base + 64, Writes: 10, Thread: 2},
		Span: cacheline.NewVirtual(base+28, 64), // spans lines 0 and 1
		Kind: KindAlignment,
	}
	v := r.Add(pair)
	if v == nil {
		t.Fatal("Add returned nil")
	}
	if r.Add(pair) != nil {
		t.Error("duplicate span re-registered")
	}
	r.Route(1, base+56, 8, true)
	r.Route(2, base+64, 8, true)
	r.Route(1, base+56, 8, true)
	if v.Invalidations() != 2 {
		t.Errorf("invalidations = %d, want 2", v.Invalidations())
	}
	// Route to an untracked line: no effect, no panic.
	r.Route(1, base+4096, 8, true)
	if len(r.Tracks()) != 1 {
		t.Errorf("Tracks() = %d, want 1", len(r.Tracks()))
	}
}

func TestRegistrySpanningAccessNotDoubleCounted(t *testing.T) {
	r := NewRegistry(geom, detect.Sampler{})
	pair := HotPair{
		X:    HotWord{Addr: base + 56, Writes: 10, Thread: 1},
		Y:    HotWord{Addr: base + 64, Writes: 10, Thread: 2},
		Span: cacheline.NewVirtual(base+28, 64),
	}
	v := r.Add(pair)
	// One access spanning the line 0/1 boundary hits both index buckets
	// but must be handled exactly once.
	r.Route(1, base+60, 8, true)
	if v.Accesses() != 1 {
		t.Errorf("accesses = %d, want 1 (double-handled)", v.Accesses())
	}
}

func TestRegistryEmpty(t *testing.T) {
	r := NewRegistry(geom, detect.Sampler{})
	if !r.Empty() {
		t.Error("fresh registry not empty")
	}
	r.Add(HotPair{Span: cacheline.NewVirtual(base, 64)})
	if r.Empty() {
		t.Error("registry empty after Add")
	}
}

func TestKindString(t *testing.T) {
	if KindAlignment.String() == "" || KindDoubledLine.String() == "" || Kind(9).String() == "" {
		t.Error("Kind.String returned empty")
	}
}

// Property: every pair FindPairs returns satisfies the paper's conditions:
// same virtual line, >=1 write, different threads, estimate above average.
func TestPropPairsSatisfyPaperConditions(t *testing.T) {
	f := func(w1, w2 uint16, wordX, wordY uint8) bool {
		cur := mkTrack(0, [4]int{1, int(wordX % 8), int(w1%500) + 1, 0})
		adj := mkTrack(1, [4]int{2, int(wordY % 8), int(w2%500) + 1, 0})
		for _, p := range FindPairs(cur, adj, geom) {
			if !p.Span.Contains(p.X.Addr) || !p.Span.Contains(p.Y.Addr) {
				return false
			}
			if p.X.Writes == 0 && p.Y.Writes == 0 {
				return false
			}
			if p.X.Thread == p.Y.Thread {
				return false
			}
			if float64(p.Estimate) <= cur.AverageWordAccesses() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the invalidation estimate is monotone in both sides' traffic
// and zero iff neither side writes.
func TestPropEstimateMonotone(t *testing.T) {
	f := func(r1, w1, r2, w2, bump uint16) bool {
		x := HotWord{Reads: uint64(r1), Writes: uint64(w1), Thread: 1}
		y := HotWord{Reads: uint64(r2), Writes: uint64(w2), Thread: 2}
		base := EstimateInvalidations(x, y)
		if (x.Writes == 0 && y.Writes == 0) != (base == 0) {
			return false
		}
		xx := x
		xx.Reads += uint64(bump)
		yy := y
		yy.Writes += uint64(bump)
		return EstimateInvalidations(xx, y) >= base && EstimateInvalidations(x, yy) >= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: estimates are symmetric in their arguments.
func TestPropEstimateSymmetric(t *testing.T) {
	f := func(r1, w1, r2, w2 uint16) bool {
		x := HotWord{Reads: uint64(r1), Writes: uint64(w1), Thread: 1}
		y := HotWord{Reads: uint64(r2), Writes: uint64(w2), Thread: 2}
		return EstimateInvalidations(x, y) == EstimateInvalidations(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegistryConcurrentRouting(t *testing.T) {
	r := NewRegistry(geom, detect.Sampler{})
	v := r.Add(HotPair{
		X:    HotWord{Addr: base + 56, Writes: 10, Thread: 1},
		Y:    HotWord{Addr: base + 64, Writes: 10, Thread: 2},
		Span: cacheline.NewVirtual(base+28, 64),
	})
	var wg sync.WaitGroup
	const workers, per = 4, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Route(tid, base+56, 8, true)
			}
		}(w)
	}
	wg.Wait()
	if v.Accesses() != workers*per {
		t.Errorf("accesses = %d, want %d", v.Accesses(), workers*per)
	}
	if v.Invalidations() == 0 || v.Invalidations() > workers*per {
		t.Errorf("invalidations = %d out of range", v.Invalidations())
	}
}

// cloneTable deep-copies a route table's index so a later comparison sees
// any write into the arrays the original holds.
func cloneTable(t *routeTable) *routeTable {
	c := &routeTable{lines: slices.Clone(t.lines), all: slices.Clone(t.all), ords: slices.Clone(t.ords)}
	for _, vs := range t.tracks {
		c.tracks = append(c.tracks, slices.Clone(vs))
	}
	for _, ws := range t.words {
		ords := make([][]*detect.Ordinal, len(ws.ords))
		for w, os := range ws.ords {
			ords[w] = slices.Clone(os)
		}
		c.words = append(c.words, lineWords{ctr: ws.ctr, ords: ords})
	}
	return c
}

func sameTable(a, b *routeTable) bool {
	sameWords := func(x, y lineWords) bool {
		return len(x.ctr) == len(y.ctr) && (len(x.ctr) == 0 || &x.ctr[0] == &y.ctr[0]) &&
			slices.EqualFunc(x.ords, y.ords, slices.Equal[[]*detect.Ordinal])
	}
	return slices.Equal(a.lines, b.lines) && slices.Equal(a.all, b.all) && slices.Equal(a.ords, b.ords) &&
		slices.EqualFunc(a.tracks, b.tracks, slices.Equal[[]*VTrack]) &&
		slices.EqualFunc(a.words, b.words, sameWords)
}

// Add publishes a new route table while Route, Snapshots and
// SnapshotsOverlapping read without locking: a table loaded before an Add is
// unchanged after it, and a Route issued once Add has returned reaches the
// new virtual line. (core's TestAddConcurrentWithMemberWords runs Add beside
// accesses counted on member words.)
func TestRegistryAddConcurrentWithReaders(t *testing.T) {
	t.Run("exact", testAddConcurrentWithReaders)
}

func testAddConcurrentWithReaders(t *testing.T) {
	r := NewRegistry(geom, detect.Sampler{})
	hot := r.Add(HotPair{Span: cacheline.NewVirtual(base+28, 64)}) // lines 0 and 1
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	var started sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		started.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Route(tid, base+56, 8, true)
				switch tid {
				case 1:
					r.Snapshots()
				case 2:
					r.SnapshotsOverlapping(base, base+64*64)
				}
				if i == 0 {
					started.Done()
				}
			}
		}(w)
	}
	started.Wait() // the readers run before the first Add
	// Two virtual lines per even line 2..32, each straddling into the next
	// line, registered in an order that inserts at the front, in the middle
	// and at the end of the index, and into per-line lists already published.
	const adds = 32
	added := []*VTrack{hot}
	for i := 0; i < adds; i++ {
		line := 2 + 2*uint64(i*13%(adds/2))
		start := base + line*64 + 8 + 8*uint64(i/(adds/2))
		before := r.table.Load()
		want := cloneTable(before)
		v := r.Add(HotPair{Span: cacheline.NewVirtual(start, 64)})
		if v == nil {
			t.Fatalf("Add %d refused", i)
		}
		added = append(added, v)
		if !sameTable(before, want) {
			t.Fatalf("Add %d modified the previously published table", i)
		}
		r.Route(0, start, 8, true)
		if v.Accesses() != 1 {
			t.Fatalf("Add %d: Route after Add reached the new line %d times, want 1", i, v.Accesses())
		}
	}
	if got := r.Tracks(); !slices.Equal(got, added) {
		t.Errorf("Tracks() is not in registration order")
	}
	// Each straddling line is indexed under both of its lines, and
	// SnapshotsOverlapping reports it once.
	if got := r.SnapshotsOverlapping(base+2*64, base+4*64); len(got) != 2 {
		t.Errorf("SnapshotsOverlapping(lines 2-3) = %d virtual lines, want 2", len(got))
	}
}
