package detect

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"predator/internal/cacheline"
)

var geom64 = cacheline.MustGeometry(64)

func newTrack() *Track {
	return NewTrack(0x400000000, geom64, Sampler{})
}

func TestHandleAccessCountsReadsWrites(t *testing.T) {
	tr := newTrack()
	tr.HandleAccess(0, tr.LineBase(), 8, true)
	tr.HandleAccess(0, tr.LineBase()+8, 8, false)
	tr.HandleAccess(0, tr.LineBase()+8, 8, false)
	if tr.Writes() != 1 || tr.Reads() != 2 {
		t.Errorf("writes=%d reads=%d, want 1,2", tr.Writes(), tr.Reads())
	}
	if tr.Accesses() != 3 || tr.Recorded() != 3 {
		t.Errorf("accesses=%d recorded=%d", tr.Accesses(), tr.Recorded())
	}
}

func TestWordOwnershipSingleThread(t *testing.T) {
	tr := newTrack()
	tr.HandleAccess(3, tr.LineBase()+16, 8, true)
	w := tr.Words()[2]
	if w.Owner != 3 || w.Writes != 1 || w.Reads != 0 {
		t.Errorf("word 2 = %+v", w)
	}
}

func TestWordBecomesSharedWithForeignTraffic(t *testing.T) {
	tr := newTrack()
	addr := tr.LineBase() + 24
	// Balanced two-thread traffic on one word is true sharing: the word's
	// effective owner must report shared.
	for i := 0; i < 10; i++ {
		tr.HandleAccess(1, addr, 8, true)
		tr.HandleAccess(2, addr, 8, false)
	}
	w := tr.Words()[3]
	if got := w.EffectiveOwner(); got != OwnerShared {
		t.Fatalf("EffectiveOwner = %d, want OwnerShared", got)
	}
	if w.Owner != 1 || w.Foreign != 10 {
		t.Errorf("word = %+v, want owner 1 with 10 foreign accesses", w)
	}
}

func TestSingleForeignReadDoesNotShare(t *testing.T) {
	// A lone main-thread read of a worker's word (the usual results
	// collection) must not flip the word to shared.
	tr := newTrack()
	addr := tr.LineBase() + 24
	for i := 0; i < 1000; i++ {
		tr.HandleAccess(1, addr, 8, true)
	}
	tr.HandleAccess(0, addr, 8, false)
	if got := tr.Words()[3].EffectiveOwner(); got != 1 {
		t.Errorf("EffectiveOwner = %d, want 1 (dominant owner)", got)
	}
}

func TestThreadZeroOwnsWords(t *testing.T) {
	// Regression guard: thread ID 0 must be distinguishable from "no
	// owner"; a fresh word accessed by thread 1 must become owned by 1,
	// not shared.
	tr := newTrack()
	tr.HandleAccess(1, tr.LineBase(), 8, true)
	if got := tr.Words()[0].Owner; got != 1 {
		t.Fatalf("owner = %d, want 1", got)
	}
	tr2 := newTrack()
	tr2.HandleAccess(0, tr2.LineBase(), 8, true)
	if got := tr2.Words()[0].Owner; got != 0 {
		t.Fatalf("owner = %d, want 0", got)
	}
}

func TestMultiWordAccess(t *testing.T) {
	tr := newTrack()
	// A 16-byte access starting mid-word covers words 0,1,2.
	tr.HandleAccess(0, tr.LineBase()+4, 16, false)
	words := tr.Words()
	for i := 0; i <= 2; i++ {
		if words[i].Reads != 1 {
			t.Errorf("word %d reads = %d, want 1", i, words[i].Reads)
		}
	}
	if words[3].Reads != 0 {
		t.Error("word 3 touched")
	}
}

func TestAccessClippedToLine(t *testing.T) {
	tr := newTrack()
	// Access spans past the end of the line: only in-line words counted.
	tr.HandleAccess(0, tr.LineBase()+56, 16, true)
	words := tr.Words()
	if words[7].Writes != 1 {
		t.Error("last word not recorded")
	}
	for i := 0; i < 7; i++ {
		if words[i].Writes != 0 {
			t.Errorf("word %d spuriously recorded", i)
		}
	}
	// Access starting before the line.
	tr2 := NewTrack(0x400000040, geom64, Sampler{})
	tr2.HandleAccess(0, 0x400000038, 16, true)
	if tr2.Words()[0].Writes != 1 {
		t.Error("first word not recorded for access starting before line")
	}
	if tr2.Words()[1].Writes != 0 {
		t.Error("word 1 spuriously recorded")
	}
}

func TestInvalidationAccounting(t *testing.T) {
	tr := newTrack()
	for i := 0; i < 10; i++ {
		tr.HandleAccess(i%2, tr.LineBase()+uint64((i%2)*8), 8, true)
	}
	if got := tr.Invalidations(); got != 9 {
		t.Errorf("invalidations = %d, want 9 (write ping-pong)", got)
	}
}

func TestSamplerWindow(t *testing.T) {
	s := Sampler{Window: 100, Burst: 10}
	recorded := 0
	for n := uint64(1); n <= 1000; n++ {
		if s.ShouldRecord(n) {
			recorded++
		}
	}
	if recorded != 100 {
		t.Errorf("recorded %d of 1000, want 100", recorded)
	}
	if s.Rate() != 0.1 {
		t.Errorf("Rate = %v, want 0.1", s.Rate())
	}
	// First access of every interval must be recorded.
	if !s.ShouldRecord(1) || !s.ShouldRecord(101) {
		t.Error("interval-initial access not recorded")
	}
	if s.ShouldRecord(11) || s.ShouldRecord(100) {
		t.Error("post-burst access recorded")
	}
}

// The division-free phase must equal (n-1) % Window everywhere: inside the
// 32-bit fastmod domain, at its edges, and on the % fallback beyond it, for
// Samplers built by NewSampler and for struct literals alike.
func TestSamplerPhaseMatchesModulo(t *testing.T) {
	const max = ^uint64(0)
	windows := []uint64{1, 2, 3, 1e6, 1<<32 - 1, 1 << 32, 1<<40 + 7}
	for _, w := range windows {
		fast := NewSampler(w, w/2)
		if wantFast := w > 1 && w < 1<<32; (fast.m != 0) != wantFast {
			t.Errorf("NewSampler(%d): fastmod multiplier set = %v, want %v", w, fast.m != 0, wantFast)
		}
		for _, n := range []uint64{1, 2, w, w + 1, 2*w - 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, max - 1, max} {
			want := (n - 1) % w
			for _, s := range []Sampler{fast, {Window: w, Burst: w / 2}} {
				if got := s.phase(n); got != want {
					t.Errorf("Window %d (m=%d): phase(%d) = %d, want %d", w, s.m, n, got, want)
				}
				if got := s.ShouldRecord(n); got != (want < w/2) {
					t.Errorf("Window %d (m=%d): ShouldRecord(%d) = %v, want %v", w, s.m, n, got, want < w/2)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		w := uint64(rng.Uint32()>>rng.Intn(32)) + 1
		n := uint64(rng.Uint32()) + 1
		if got, want := NewSampler(w, 1).phase(n), (n-1)%w; got != want {
			t.Fatalf("Window %d: phase(%d) = %d, want %d", w, n, got, want)
		}
	}
	// Window 0 disables sampling, with or without NewSampler.
	for _, s := range []Sampler{NewSampler(0, 0), NewSampler(0, 5), {}} {
		for _, n := range []uint64{1, 2, 1 << 32, max} {
			if !s.ShouldRecord(n) {
				t.Errorf("Window 0, Burst %d: ShouldRecord(%d) = false", s.Burst, n)
			}
		}
	}
}

func TestSamplerDisabled(t *testing.T) {
	s := Sampler{}
	for n := uint64(1); n < 100; n++ {
		if !s.ShouldRecord(n) {
			t.Fatal("disabled sampler skipped an access")
		}
	}
	if s.Rate() != 1 {
		t.Errorf("Rate = %v, want 1", s.Rate())
	}
}

func TestSamplingReducesRecorded(t *testing.T) {
	tr := NewTrack(0x400000000, geom64, Sampler{Window: 1000, Burst: 10})
	for i := 0; i < 10000; i++ {
		tr.HandleAccess(i%2, tr.LineBase(), 8, true)
	}
	if tr.Accesses() != 10000 {
		t.Errorf("accesses = %d", tr.Accesses())
	}
	if tr.Recorded() != 100 {
		t.Errorf("recorded = %d, want 100", tr.Recorded())
	}
	if tr.Invalidations() == 0 || tr.Invalidations() > 100 {
		t.Errorf("invalidations = %d, want within (0,100]", tr.Invalidations())
	}
}

func TestAverageAndHotWords(t *testing.T) {
	tr := newTrack()
	// Words 0 and 7 hot, others cold.
	for i := 0; i < 100; i++ {
		tr.HandleAccess(1, tr.LineBase(), 8, true)
		tr.HandleAccess(2, tr.LineBase()+56, 8, true)
	}
	tr.HandleAccess(1, tr.LineBase()+16, 8, false)
	avg := tr.AverageWordAccesses()
	if avg <= 0 || avg >= 100 {
		t.Errorf("average = %v", avg)
	}
	hot := tr.HotWords()
	if len(hot) != 2 || hot[0].Index != 0 || hot[1].Index != 7 {
		t.Errorf("hot words = %+v", hot)
	}
}

func TestReset(t *testing.T) {
	tr := newTrack()
	tr.HandleAccess(1, tr.LineBase(), 8, true)
	tr.HandleAccess(2, tr.LineBase(), 8, true)
	tr.Reset()
	if tr.Accesses() != 0 || tr.Invalidations() != 0 || tr.Writes() != 0 {
		t.Error("counters not reset")
	}
	for _, w := range tr.Words() {
		if w.Owner != OwnerNone || w.Reads != 0 || w.Writes != 0 {
			t.Errorf("word %d not reset: %+v", w.Index, w)
		}
	}
	// After reset, ownership restarts cleanly.
	tr.HandleAccess(5, tr.LineBase(), 8, true)
	if tr.Words()[0].Owner != 5 {
		t.Error("ownership after reset wrong")
	}
}

func TestWordAddr(t *testing.T) {
	tr := newTrack()
	if got := tr.WordAddr(3); got != tr.LineBase()+24 {
		t.Errorf("WordAddr(3) = %#x", got)
	}
}

// Property: sum of per-word read counts >= recorded reads (every recorded
// read touches at least one word) and invalidations <= recorded writes.
func TestPropCounterConsistency(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := newTrack()
		for i := 0; i < int(n); i++ {
			addr := tr.LineBase() + uint64(rng.Intn(64))
			size := uint64(1 + rng.Intn(8))
			tr.HandleAccess(rng.Intn(4), addr, size, rng.Intn(2) == 0)
		}
		var wordReads, wordWrites uint64
		for _, w := range tr.Words() {
			wordReads += w.Reads
			wordWrites += w.Writes
		}
		return wordReads >= tr.Reads() && wordWrites >= tr.Writes() &&
			tr.Invalidations() <= tr.Writes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a word is effectively shared only if at least two distinct
// threads accessed it; single-thread words never classify as shared, and the
// recorded foreign count equals the accesses made by non-owner threads.
func TestPropSharedOnlyIfMultiThread(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := newTrack()
		seen := map[int]map[int]int{} // word -> tid -> count
		for i := 0; i < int(n); i++ {
			tid := rng.Intn(3)
			word := rng.Intn(8)
			tr.HandleAccess(tid, tr.LineBase()+uint64(word*8), 8, true)
			if seen[word] == nil {
				seen[word] = map[int]int{}
			}
			seen[word][tid]++
		}
		for _, w := range tr.Words() {
			multi := len(seen[w.Index]) >= 2
			if !multi && w.EffectiveOwner() == OwnerShared {
				return false
			}
			if w.Owner >= 0 {
				foreign := uint64(0)
				for tid, cnt := range seen[w.Index] {
					if tid != w.Owner {
						foreign += uint64(cnt)
					}
				}
				if w.Foreign != foreign {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentHandleAccess(t *testing.T) {
	tr := newTrack()
	const workers, per = 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			addr := tr.LineBase() + uint64(tid*8)
			for i := 0; i < per; i++ {
				tr.HandleAccess(tid, addr, 8, true)
			}
		}(w)
	}
	wg.Wait()
	if tr.Accesses() != workers*per {
		t.Errorf("accesses = %d, want %d", tr.Accesses(), workers*per)
	}
	words := tr.Words()
	for w := 0; w < workers; w++ {
		if words[w].Owner != w {
			t.Errorf("word %d owner = %d, want %d", w, words[w].Owner, w)
		}
		if words[w].Writes != per {
			t.Errorf("word %d writes = %d, want %d", w, words[w].Writes, per)
		}
	}
	if tr.Invalidations() == 0 {
		t.Error("disjoint-word write ping-pong produced no invalidations (false sharing signature)")
	}
}

func BenchmarkHandleAccess(b *testing.B) {
	tr := newTrack()
	for i := 0; i < b.N; i++ {
		tr.HandleAccess(i&1, tr.LineBase()+uint64(i&7)*8, 8, true)
	}
}

func BenchmarkHandleAccessSampled(b *testing.B) {
	tr := NewTrack(0x400000000, geom64, Sampler{Window: 1000000, Burst: 10000})
	for i := 0; i < b.N; i++ {
		tr.HandleAccess(i&1, tr.LineBase()+uint64(i&7)*8, 8, true)
	}
}
