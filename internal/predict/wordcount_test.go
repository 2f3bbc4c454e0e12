package predict

import (
	"math/rand"
	"testing"

	"predator/internal/cacheline"
	"predator/internal/detect"
	"predator/internal/histtable"
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

// dispatch delivers an access as core's runtime does when track, the track
// of line 0, has joined its words: an aligned word access to an open word
// of line 0 is counted on the word, or decided on the folded ordinals past
// its limit, other accesses to line 0 are counted by the track, and every
// access not counted on a word is routed.
func dispatch(r *Registry, track *detect.Track, tid int, addr, size uint64, isWrite bool) int {
	if lo := track.LineBase(); addr < lo+geom.Size() && lo < addr+size {
		var open, within bool
		if size == cacheline.WordSize && addr&(cacheline.WordSize-1) == 0 {
			open, within = track.Counter(geom.WordIndex(addr)).Count()
		}
		switch {
		case within:
			return 0
		case open:
			r.Settle(track, geom.WordIndex(addr), tid, addr, size, isWrite)
		default:
			track.HandleAccess(tid, addr, size, isWrite)
		}
	}
	return r.Route(tid, addr, size, isWrite)
}

// Only a line whose track SetTracks names gets word counters: a virtual
// line over the tracked line 0 and the untracked line 1 counts on line 0's
// words and directly on line 1, and it and line 0's track sample exactly as
// the one-ordinal model does.
func TestRegistryWordsOnlyOnTrackedLines(t *testing.T) {
	sampler := detect.NewSampler(64, 4)
	track := detect.NewTrack(base, geom, sampler)
	r := NewRegistry(geom, sampler)
	r.SetTracks(func(lineBase uint64) *detect.Track {
		if lineBase == base {
			return track
		}
		return nil
	})
	span := cacheline.NewVirtual(base+28, 64)
	v := r.Add(HotPair{Span: span})
	tab := r.table.Load()
	if !track.Joined() || !v.Joined() || len(tab.words) != 2 || tab.words[0].ctr == nil || tab.words[1].ctr != nil {
		t.Fatal("want counters on line 0 only, joined by its track and the virtual line")
	}
	vref := &refLine{span: span, sampler: sampler}
	tref := &refLine{span: cacheline.NewVirtual(base, 64), sampler: sampler}
	rng := rand.New(rand.NewSource(1))
	pending := false
	for i := 0; i < 4_000; i++ {
		tid := rng.Intn(3)
		addr, size := wordCountAccess(rng)
		isWrite := rng.Intn(3) != 0
		tref.access(tid, addr, size, isWrite)
		want := 0
		if vref.access(tid, addr, size, isWrite) {
			want = 1
		}
		if inv := dispatch(r, track, tid, addr, size, isWrite); inv != want {
			t.Fatalf("access %d: %d virtual-line invalidations, want %d", i, inv, want)
		}
		if track.Accesses() != tref.accesses || track.Recorded() != tref.recorded || track.Invalidations() != tref.inv {
			t.Fatalf("access %d, track: accesses/recorded/invalidations = %d/%d/%d, want %d/%d/%d", i,
				track.Accesses(), track.Recorded(), track.Invalidations(), tref.accesses, tref.recorded, tref.inv)
		}
		if v.Accesses() != vref.accesses || v.Recorded() != vref.recorded || v.Invalidations() != vref.inv {
			t.Fatalf("access %d, virtual line: accesses/recorded/invalidations = %d/%d/%d, want %d/%d/%d", i,
				v.Accesses(), v.Recorded(), v.Invalidations(), vref.accesses, vref.recorded, vref.inv)
		}
		pending = pending || track.Folded() != track.Accesses() || v.Folded() != v.Accesses()
	}
	if !pending {
		t.Error("no word count was ever pending; line 0's words never opened")
	}
}
