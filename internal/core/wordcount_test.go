package core

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"predator/internal/cacheline"
	"predator/internal/detect"
	"predator/internal/histtable"
	"predator/internal/mem"
	"predator/internal/predict"
)

// refLine is the one-ordinal-per-access model of a physical or virtual
// line: every overlapping access takes the next ordinal, and sampling
// decides on it.
type refLine struct {
	span                    cacheline.Virtual
	sampler                 detect.Sampler
	accesses, recorded, inv uint64
	hist                    histtable.Table
}

// access applies one access to the model.
func (l *refLine) access(tid int, addr, size uint64, isWrite bool) {
	if !l.span.Overlaps(addr, size) {
		return
	}
	l.accesses++
	if !l.sampler.ShouldRecord(l.accesses) {
		return
	}
	l.recorded++
	if l.hist.Access(tid, isWrite) {
		l.inv++
	}
}

// wordCountRuntime returns a runtime that samples with the given policy and
// never searches for hot pairs, and the base of three lines of its heap, the
// first of them the first line of a doubled line.
func wordCountRuntime(t *testing.T, window, burst uint64) (*Runtime, uint64) {
	t.Helper()
	h, err := mem.NewHeap(mem.Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(h, Config{
		TrackingThreshold:   1,
		PredictionThreshold: math.MaxUint64,
		ReportThreshold:     1,
		SampleWindow:        window,
		SampleBurst:         burst,
		Prediction:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt, (h.Base() + 4*128) &^ 127
}

// lregSpans are linear_regression's virtual lines over the lines at base
// and base+64: the doubled line and seven centered lines 4 bytes apart
// across the boundary.
func lregSpans(base uint64) []cacheline.Virtual {
	spans := []cacheline.Virtual{cacheline.NewVirtual(base, 128)}
	for k := uint64(0); k < 7; k++ {
		spans = append(spans, cacheline.NewVirtual(base+16+4*k, 64))
	}
	return spans
}

// wordCountAccess draws one access on the three lines from base: mostly
// aligned 8-byte words, the rest sub-word, unaligned or line-spanning.
func wordCountAccess(rng *rand.Rand, base uint64) (addr, size uint64) {
	switch k := rng.Intn(20); {
	case k < 13: // aligned word
		return base + 8*uint64(rng.Intn(24)), 8
	case k < 16: // sub-word
		size = 1 << rng.Intn(3)
		return base + size*uint64(rng.Intn(int(192/size))), size
	case k < 18: // unaligned, inside a line
		return base + 64*uint64(rng.Intn(3)) + 4 + 8*uint64(rng.Intn(7)), 8
	default: // spanning lines 0/1 or 1/2
		return base + 64*uint64(1+rng.Intn(2)) - 4, uint64(8 + 8*rng.Intn(2))
	}
}

// The runtime samples every tracked and virtual line exactly as the
// one-ordinal model does: with the tracks of three lines installed first
// and linear_regression's virtual lines plus one straddling lines 1 and 2
// registered at random points, a serial stream that mixes member words with
// directly counted accesses leaves each line's Accesses, Recorded and
// Invalidations equal to the model's while bursts, folds and allowances turn
// over.
func TestRegistryMatchesOrdinalModel(t *testing.T) {
	const seeds, accesses = 6, 4_000
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window := uint64(50 + rng.Intn(201))
		burst := uint64(1 + rng.Intn(20))
		rt, base := wordCountRuntime(t, window, burst)
		sampler := detect.NewSampler(window, burst)
		first, _ := rt.mapping.Index(base)
		for l := first; l < first+3; l++ {
			rt.installTrack(l)
		}
		tracks := map[*detect.Track]*refLine{}
		rt.sh.ForEachTracked(func(l uint64, tr *detect.Track) {
			tracks[tr] = &refLine{span: cacheline.NewVirtual(rt.mapping.LineBase(l), 64), sampler: sampler}
		})
		rt.vactive.Store(true)
		spans := append(lregSpans(base), cacheline.NewVirtual(base+100, 64))
		rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
		// Register the first line at once and the rest at random points.
		at := make([]int, len(spans))
		for k := 1; k < len(at); k++ {
			at[k] = rng.Intn(accesses / 2)
		}
		vlines := map[*predict.VTrack]*refLine{}
		pending := false
		for i := 0; i < accesses; i++ {
			for k, span := range spans {
				if at[k] == i {
					vlines[rt.vreg.Add(predict.HotPair{Span: span})] = &refLine{span: span, sampler: sampler}
				}
			}
			tid := rng.Intn(3)
			addr, size := wordCountAccess(rng, base)
			isWrite := rng.Intn(3) != 0
			for _, l := range tracks {
				l.access(tid, addr, size, isWrite)
			}
			for _, l := range vlines {
				l.access(tid, addr, size, isWrite)
			}
			rt.HandleAccess(tid, addr, size, isWrite)
			if i%97 != 0 && i != accesses-1 {
				continue
			}
			for tr, l := range tracks {
				if tr.Accesses() != l.accesses || tr.Recorded() != l.recorded || tr.Invalidations() != l.inv {
					t.Fatalf("seed %d access %d, line %v (W %d B %d): accesses/recorded/invalidations = %d/%d/%d, want %d/%d/%d",
						seed, i, l.span, window, burst,
						tr.Accesses(), tr.Recorded(), tr.Invalidations(), l.accesses, l.recorded, l.inv)
				}
				pending = pending || tr.Folded() != tr.Accesses()
			}
			for v, l := range vlines {
				if v.Accesses() != l.accesses || v.Recorded() != l.recorded || v.Invalidations() != l.inv {
					t.Fatalf("seed %d access %d, virtual line %v (W %d B %d): accesses/recorded/invalidations = %d/%d/%d, want %d/%d/%d",
						seed, i, l.span, window, burst,
						v.Accesses(), v.Recorded(), v.Invalidations(), l.accesses, l.recorded, l.inv)
				}
				pending = pending || v.Folded() != v.Accesses()
			}
		}
		if !pending {
			t.Errorf("seed %d: no word count was ever pending; the word path never opened", seed)
		}
	}
}

// Add registers virtual lines while workers count on the member words of
// the lines they overlap: with sampling on, the workers' words open, pass
// their limits and fold while Add runs, and once the workers join every
// tracked and virtual line has counted exactly the accesses it saw, the
// access made right after its own Add included.
func TestAddConcurrentWithMemberWords(t *testing.T) {
	rt, lo := wordCountRuntime(t, 100, 5)
	first, _ := rt.mapping.Index(lo)
	rt.installTrack(first)
	rt.installTrack(first + 1)
	hot := rt.vreg.Add(predict.HotPair{Span: cacheline.NewVirtual(lo, 128)}) // the doubled line
	rt.vactive.Store(true)
	// Three workers write the first three words of line lo, one each.
	const workers = 3
	var total atomic.Uint64 // the workers' accesses, added as each returns
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	halt := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer halt()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		started.Add(1)
		go func(tid int) {
			defer wg.Done()
			for n := uint64(1); ; n++ {
				select {
				case <-stop:
					total.Add(n - 1)
					return
				default:
				}
				rt.HandleAccess(tid, lo+8*uint64(tid), 8, true)
				if n == 1 {
					started.Done()
				}
			}
		}(w)
	}
	started.Wait() // the workers count before the first Add
	// Virtual lines of 32 and 64 bytes over the rest of both lines, each
	// followed by one access at its start from a thread of its own.
	type added struct {
		v    *predict.VTrack
		from int // the first main access it can see
	}
	var vs []added
	var mains []uint64 // start addresses of the 8-byte main accesses
	for _, size := range []uint64{64, 32} {
		for start := lo + 3*8; start+size <= lo+128; start += 4 {
			v := rt.vreg.Add(predict.HotPair{Span: cacheline.NewVirtual(start, size)})
			if v == nil {
				t.Fatalf("Add(%#x, %d) refused", start, size)
			}
			vs = append(vs, added{v, len(mains)})
			rt.HandleAccess(workers, start, 8, true)
			mains = append(mains, start)
		}
	}
	halt()
	overlapping := func(span cacheline.Virtual, from int) (n uint64) {
		for _, a := range mains[from:] {
			if span.Overlaps(a, 8) {
				n++
			}
		}
		return n
	}
	for l, want := range map[uint64]uint64{
		first:     total.Load() + overlapping(cacheline.NewVirtual(lo, 64), 0),
		first + 1: overlapping(cacheline.NewVirtual(lo+64, 64), 0),
	} {
		if got := rt.sh.Track(l).Accesses(); got != want {
			t.Errorf("line %d: accesses = %d, want %d", l, got, want)
		}
	}
	if want := total.Load() + uint64(len(mains)); hot.Accesses() != want {
		t.Errorf("doubled line: accesses = %d, want %d", hot.Accesses(), want)
	}
	for _, a := range vs {
		if want := overlapping(a.v.Span(), a.from); a.v.Accesses() != want {
			t.Errorf("virtual line %v: accesses = %d, want %d", a.v.Span(), a.v.Accesses(), want)
		}
	}
}
