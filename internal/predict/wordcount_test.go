package predict

import (
	"math/rand"
	"sync"
	"testing"

	"predator/internal/cacheline"
	"predator/internal/detect"
	"predator/internal/histtable"
)

// refLine is the one-ordinal-per-access model of a virtual line: every
// overlapping access takes the next ordinal, and sampling decides on it.
type refLine struct {
	span                    cacheline.Virtual
	sampler                 detect.Sampler
	accesses, recorded, inv uint64
	hist                    histtable.Table
}

// access applies one access and reports whether it invalidated the line.
func (l *refLine) access(tid int, addr, size uint64, isWrite bool) bool {
	if !l.span.Overlaps(addr, size) {
		return false
	}
	l.accesses++
	if !l.sampler.ShouldRecord(l.accesses) {
		return false
	}
	l.recorded++
	if l.hist.Access(tid, isWrite) {
		l.inv++
		return true
	}
	return false
}

// lregSpans are linear_regression's virtual lines over physical lines 0 and
// 1: the doubled line and seven centered lines 4 bytes apart across the
// boundary.
func lregSpans() []cacheline.Virtual {
	spans := []cacheline.Virtual{cacheline.FusedLine(geom, geom.Index(base), 2)}
	for k := uint64(0); k < 7; k++ {
		spans = append(spans, cacheline.NewVirtual(base+16+4*k, 64))
	}
	return spans
}

// wordCountAccess draws one access on physical lines 0-2: mostly aligned
// 8-byte words, the rest sub-word, unaligned or line-spanning.
func wordCountAccess(rng *rand.Rand) (addr, size uint64) {
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

// The registry samples every virtual line exactly as the one-ordinal model
// does: driven serially, each line's Accesses, Recorded and Invalidations,
// and each Route's result, equal the reference's, while lines are added
// mid-stream, bursts, folds and allowances turn over, and accesses mix the
// word path with directly counted ones.
func TestRegistryMatchesOrdinalModel(t *testing.T) {
	const seeds, accesses = 6, 4_000
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window := uint64(50 + rng.Intn(201))
		sampler := detect.NewSampler(window, uint64(1+rng.Intn(20)))
		r := NewRegistry(geom, sampler)
		// linear_regression's lines plus one straddling lines 1 and 2.
		spans := append(lregSpans(), cacheline.NewVirtual(base+100, 64))
		rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
		// Register the first line at once and the rest at random points.
		at := make([]int, len(spans))
		for k := 1; k < len(at); k++ {
			at[k] = rng.Intn(accesses / 2)
		}
		var got []*VTrack
		var ref []*refLine
		pending := false
		for i := 0; i < accesses; i++ {
			for k, span := range spans {
				if at[k] == i {
					got = append(got, r.Add(HotPair{Span: span}))
					ref = append(ref, &refLine{span: span, sampler: sampler})
				}
			}
			tid := rng.Intn(3)
			addr, size := wordCountAccess(rng)
			isWrite := rng.Intn(3) != 0
			want := 0
			for _, l := range ref {
				if l.access(tid, addr, size, isWrite) {
					want++
				}
			}
			if inv := r.Route(tid, addr, size, isWrite); inv != want {
				t.Fatalf("seed %d access %d: Route = %d invalidations, want %d", seed, i, inv, want)
			}
			if i%97 != 0 && i != accesses-1 {
				continue
			}
			for k, v := range got {
				l := ref[k]
				if v.Accesses() != l.accesses || v.Recorded() != l.recorded || v.Invalidations() != l.inv {
					t.Fatalf("seed %d access %d, line %v (W %d B %d): accesses/recorded/invalidations = %d/%d/%d, want %d/%d/%d",
						seed, i, l.span, sampler.Window, sampler.Burst,
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

// With sampling on, concurrent routing keeps every line's access total
// exact at join: linear_regression's 8 virtual lines over two physical
// lines, four workers mixing aligned words and 2-byte accesses.
func TestRegistryConcurrentRoutingSampled(t *testing.T) {
	r := NewRegistry(geom, detect.NewSampler(100, 5))
	spans := lregSpans()
	vs := make([]*VTrack, len(spans))
	for k, span := range spans {
		vs[k] = r.Add(HotPair{Span: span})
	}
	// Each worker owns two aligned words around the line boundary and
	// writes them whole or 2 bytes at a time.
	const workers, per = 4, 2_500
	type access struct{ addr, size uint64 }
	streams := make([][]access, workers)
	want := make([]uint64, len(spans)) // overlapping accesses per line
	rng := rand.New(rand.NewSource(1))
	for w := range streams {
		lo := base + 40 + 16*uint64(w)
		for i := 0; i < per; i++ {
			a := access{lo + 8*uint64(rng.Intn(2)), 8}
			if rng.Intn(4) == 0 {
				a = access{a.addr + 2*uint64(rng.Intn(4)), 2}
			}
			streams[w] = append(streams[w], a)
			for k, span := range spans {
				if span.Overlaps(a.addr, a.size) {
					want[k]++
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w, stream := range streams {
		wg.Add(1)
		go func(tid int, stream []access) {
			defer wg.Done()
			for _, a := range stream {
				r.Route(tid, a.addr, a.size, true)
			}
		}(w, stream)
	}
	wg.Wait()
	for k, v := range vs {
		n := want[k]
		if v.Accesses() != n {
			t.Errorf("line %v: accesses = %d, want %d", spans[k], v.Accesses(), n)
		}
		if v.Recorded() == 0 || v.Recorded() >= n {
			t.Errorf("line %v: recorded %d of %d accesses", spans[k], v.Recorded(), n)
		}
	}
}
