package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"predator/internal/detect"
	"predator/internal/mem"
	"predator/internal/predict"
)

// memberConfig samples the first 4 of every 64 accesses, so that a short
// stream crosses many bursts, folds and plans.
func memberConfig() Config {
	return Config{
		TrackingThreshold:   10,
		PredictionThreshold: 20,
		ReportThreshold:     30,
		SampleWindow:        64,
		SampleBurst:         4,
		Prediction:          true,
	}
}

// memberPair returns a runtime whose tracked lines join their word counters
// and a reference runtime whose registry names no tracks, so that no line
// gets word counters and every tracked and virtual line counts each of its
// accesses itself, as perfbench's ledger drives them. Both heaps hold one
// 256-byte object that covers lines lo and lo+64, where lo is the first line
// of a doubled line; two threads write the words on either side of lo+64
// until each runtime has registered the centered line over the pair and the
// doubled line over both lines.
func memberPair(t testing.TB) (rt, ref *Runtime, lo uint64) {
	t.Helper()
	var hs [2]*mem.Heap
	var rts [2]*Runtime
	for k := range rts {
		h, err := mem.NewHeap(mem.Config{Size: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRuntime(h, memberConfig())
		if err != nil {
			t.Fatal(err)
		}
		hs[k], rts[k] = h, r
	}
	rt, ref = rts[0], rts[1]
	ref.vreg.SetTracks(nil)
	for k, h := range hs {
		obj, err := h.AllocWithOffset(0, 256, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if k > 0 && (obj+127)&^127 != lo {
			t.Fatalf("heap %d: object at %#x, want it to cover %#x", k, obj, lo)
		}
		lo = (obj + 127) &^ 127
	}
	for i := 0; rt.vreg.Empty() || ref.vreg.Empty() || i < 2000; i++ {
		if i == 100_000 {
			t.Fatal("no virtual line registered")
		}
		tid := i & 1
		for _, r := range rts {
			r.HandleAccess(tid, lo+56+8*uint64(tid), 8, true)
		}
	}
	kinds := map[predict.Kind]bool{}
	for _, v := range rt.vreg.Tracks() {
		kinds[v.Pair.Kind] = true
	}
	if !kinds[predict.KindAlignment] || !kinds[predict.KindDoubledLine] {
		t.Fatalf("virtual line kinds %v, want a centered and a doubled line", kinds)
	}
	return rt, ref, lo
}

// memberAccess draws one access on lines lo and lo+64: in mode 0 mostly
// aligned words, the rest sub-word, unaligned or spanning a line boundary;
// in mode 1 only those that count directly, so that direct counts pass the
// lines' allowances; in mode 2 only aligned words.
func memberAccess(rng *rand.Rand, mode int, lo uint64) (addr, size uint64) {
	k := rng.Intn(20)
	switch mode {
	case 1:
		k = 12 + rng.Intn(8)
	case 2:
		k = 0
	}
	switch {
	case k < 12: // aligned word
		return lo + 8*uint64(rng.Intn(16)), 8
	case k < 15: // sub-word
		size = 1 << rng.Intn(3)
		return lo + size*uint64(rng.Intn(int(128/size))), size
	case k < 17: // unaligned, inside a line
		return lo + 64*uint64(rng.Intn(2)) + 4 + 8*uint64(rng.Intn(7)), 8
	default: // spanning lo-64/lo, lo/lo+64 or lo+64/lo+128
		return lo + 64*uint64(rng.Intn(3)) - 4, uint64(8 + 8*rng.Intn(2))
	}
}

// sameTracking compares every tracked line and virtual line of rt with
// ref's: counts, flagging instants and flight records.
func sameTracking(rt, ref *Runtime) error {
	type line struct {
		accesses, recorded, reads, writes, invalidations uint64
		flagClock, flagWindow                            uint64
		flagged                                          bool
	}
	lines := func(r *Runtime) map[uint64]line {
		m := map[uint64]line{}
		r.sh.ForEachTracked(func(l uint64, t *detect.Track) {
			c, w, f := t.FlagInfo()
			m[l] = line{t.Accesses(), t.Recorded(), t.Reads(), t.Writes(), t.Invalidations(), c, w, f}
		})
		return m
	}
	got, want := lines(rt), lines(ref)
	if len(got) != len(want) {
		return fmt.Errorf("%d tracked lines, want %d", len(got), len(want))
	}
	for l, w := range want {
		if got[l] != w {
			return fmt.Errorf("line %d: %+v, want %+v", l, got[l], w)
		}
		if g, w := rt.sh.Track(l).FlightRecords(), ref.sh.Track(l).FlightRecords(); !slices.Equal(g, w) {
			return fmt.Errorf("line %d: flight records differ:\n%v\nwant\n%v", l, g, w)
		}
	}
	gv, wv := rt.vreg.Tracks(), ref.vreg.Tracks()
	if len(gv) != len(wv) {
		return fmt.Errorf("%d virtual lines, want %d", len(gv), len(wv))
	}
	for k, w := range wv {
		g := gv[k]
		gc, gf := g.FlagInfo()
		wc, wf := w.FlagInfo()
		if g.Span() != w.Span() || g.Accesses() != w.Accesses() || g.Recorded() != w.Recorded() ||
			g.Invalidations() != w.Invalidations() || gc != wc || gf != wf || g.RegClock() != w.RegClock() {
			return fmt.Errorf("virtual line %v: accesses/recorded/invalidations %d/%d/%d flag %d/%v reg %d, want %v %d/%d/%d flag %d/%v reg %d",
				g.Span(), g.Accesses(), g.Recorded(), g.Invalidations(), gc, gf, g.RegClock(),
				w.Span(), w.Accesses(), w.Recorded(), w.Invalidations(), wc, wf, w.RegClock())
		}
		if !slices.Equal(g.FlightRecords(), w.FlightRecords()) {
			return fmt.Errorf("virtual line %v: flight records differ", g.Span())
		}
	}
	if g, w := rt.Stats(), ref.Stats(); g != w {
		return fmt.Errorf("stats %+v, want %+v", g, w)
	}
	return nil
}

// Word counting tracks exactly as counting every access on every line: a
// runtime whose tracked lines join their words' counters and a reference
// that counts every access on every tracked and virtual line, driven
// serially with the same seeded stream (every access kind in stretches of
// different mixes, three threads, a 64/4 sampling window, and a free that
// resets both member lines), agree on every tracked and virtual line at
// every checkpoint, and the member lines did count on their words.
func TestMemberTrackMatchesSeparateCalls(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rt, ref, lo := memberPair(t)
		members := 0
		for _, l := range []uint64{lo, lo + 64} {
			line, _ := rt.mapping.Index(l)
			if rt.sh.Track(line).Joined() {
				members++
			}
			if ref.sh.Track(line).Joined() {
				t.Fatal("a reference track joined word counting")
			}
		}
		if members != 2 {
			t.Fatalf("%d of the object's lines joined word counting, want 2", members)
		}
		rng := rand.New(rand.NewSource(seed))
		const accesses = 20_000
		pending := false
		for i := 0; i < accesses; i++ {
			if i == accesses/2 {
				// Free the object: both member lines reset.
				for _, r := range []*Runtime{rt, ref} {
					objs := r.heap.ObjectsOverlapping(lo, lo+1)
					if len(objs) != 1 {
						t.Fatalf("%d objects cover %#x, want 1", len(objs), lo)
					}
					if err := r.heap.Free(objs[0].Start); err != nil {
						t.Fatal(err)
					}
				}
			}
			tid := rng.Intn(3)
			addr, size := memberAccess(rng, i/500%3, lo)
			isWrite := rng.Intn(3) != 0
			rt.HandleAccess(tid, addr, size, isWrite)
			ref.HandleAccess(tid, addr, size, isWrite)
			if i%89 != 0 && i != accesses-1 && i != accesses/2 {
				continue
			}
			line, _ := rt.mapping.Index(lo)
			if tr := rt.sh.Track(line); tr.Folded() != tr.Accesses() {
				pending = true
			}
			if err := sameTracking(rt, ref); err != nil {
				t.Fatalf("seed %d, access %d: %v", seed, i, err)
			}
		}
		if !pending {
			t.Errorf("seed %d: no count was ever pending on the member line's words", seed)
		}
	}
}

// With sampling on, a member line's access total and its virtual lines'
// stay exact under concurrent workers: each of four workers writes and
// reads two aligned words of its own, whole or 2 bytes at a time, and once
// they join every tracked and virtual line counts what the streams put on
// it.
func TestMemberTrackConcurrentTotals(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rt, _, lo := memberPair(t)
	before := map[uint64]uint64{}
	rt.sh.ForEachTracked(func(l uint64, tr *detect.Track) { before[l] = tr.Accesses() })
	vbefore := map[*predict.VTrack]uint64{}
	for _, v := range rt.vreg.Tracks() {
		vbefore[v] = v.Accesses()
	}
	type access struct{ addr, size uint64 }
	const workers, per = 4, 5_000
	streams := make([][]access, workers)
	rng := rand.New(rand.NewSource(1))
	for w := range streams {
		words := lo + 32 + 16*uint64(w) // two words per worker, lines lo and lo+64
		for i := 0; i < per; i++ {
			a := access{words + 8*uint64(rng.Intn(2)), 8}
			if rng.Intn(4) == 0 {
				a = access{a.addr + 2*uint64(rng.Intn(4)), 2}
			}
			streams[w] = append(streams[w], a)
		}
	}
	var wg sync.WaitGroup
	for w, stream := range streams {
		wg.Add(1)
		go func(tid int, stream []access) {
			defer wg.Done()
			for i, a := range stream {
				rt.HandleAccess(tid, a.addr, a.size, i%3 != 0)
			}
		}(w, stream)
	}
	wg.Wait()
	rt.sh.ForEachTracked(func(l uint64, tr *detect.Track) {
		want := before[l]
		base := rt.mapping.LineBase(l)
		for _, s := range streams {
			for _, a := range s {
				if a.addr < base+64 && a.addr+a.size > base {
					want++
				}
			}
		}
		if tr.Accesses() != want {
			t.Errorf("line %d: accesses = %d, want %d", l, tr.Accesses(), want)
		}
	})
	for _, v := range rt.vreg.Tracks() {
		want := vbefore[v]
		for _, s := range streams {
			for _, a := range s {
				if v.Span().Overlaps(a.addr, a.size) {
					want++
				}
			}
		}
		if v.Accesses() != want {
			t.Errorf("virtual line %v: accesses = %d, want %d", v.Span(), v.Accesses(), want)
		}
	}
}
