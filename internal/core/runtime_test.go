package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"predator/internal/mem"
	"predator/internal/report"
)

// testConfig uses small thresholds and no sampling so unit tests are fast
// and deterministic.
func testConfig() Config {
	return Config{
		TrackingThreshold:   10,
		PredictionThreshold: 20,
		ReportThreshold:     50,
		Prediction:          true,
	}
}

func newRuntime(t testing.TB, cfg Config) (*Runtime, *mem.Heap) {
	t.Helper()
	h, err := mem.NewHeap(mem.Config{Size: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, h
}

// pingPongWrites drives the classic false sharing pattern: two threads
// alternately write two distinct words of the same cache line.
func pingPongWrites(rt *Runtime, addrA, addrB uint64, n int) {
	for i := 0; i < n; i++ {
		rt.HandleAccess(1, addrA, 8, true)
		rt.HandleAccess(2, addrB, 8, true)
	}
}

func TestObservedFalseSharingDetected(t *testing.T) {
	rt, h := newRuntime(t, testConfig())
	addr, _ := h.AllocWithOffset(0, 64, 0, 0) // line-aligned 64-byte object
	pingPongWrites(rt, addr, addr+8, 500)

	rep := rt.Report()
	fs := rep.FalseSharing()
	if len(fs) == 0 {
		t.Fatal("false sharing not detected")
	}
	f := fs[0]
	if f.Source != report.SourceObserved {
		t.Errorf("source = %v, want observed", f.Source)
	}
	if f.Invalidations < 50 {
		t.Errorf("invalidations = %d, want >= threshold", f.Invalidations)
	}
	obj, ok := f.PrimaryObject()
	if !ok || obj.Start != addr {
		t.Errorf("primary object = %+v, want start %#x", obj, addr)
	}
}

func TestTrueSharingNotReportedAsFalse(t *testing.T) {
	rt, h := newRuntime(t, testConfig())
	addr, _ := h.AllocWithOffset(0, 64, 0, 0)
	// Both threads hammer the SAME word: true sharing.
	for i := 0; i < 500; i++ {
		rt.HandleAccess(1, addr, 8, true)
		rt.HandleAccess(2, addr, 8, true)
	}
	rep := rt.Report()
	if len(rep.FalseSharing()) != 0 {
		t.Errorf("true sharing misclassified: %+v", rep.FalseSharing())
	}
	// It still shows up as a finding, classified as true sharing.
	found := false
	for _, f := range rep.Findings {
		if f.Sharing == report.SharingTrue {
			found = true
		}
	}
	if !found {
		t.Error("true sharing line not present in findings at all")
	}
}

func TestQuietLinesNotTracked(t *testing.T) {
	rt, h := newRuntime(t, testConfig())
	addr, _ := h.Alloc(0, 64, 0)
	// Reads only: the pre-phase counts writes, so nothing should track.
	for i := 0; i < 1000; i++ {
		rt.HandleAccess(1, addr, 8, false)
		rt.HandleAccess(2, addr+8, 8, false)
	}
	if got := rt.Stats().TrackedLines; got != 0 {
		t.Errorf("TrackedLines = %d, want 0 for read-only traffic", got)
	}
	// Writes below the threshold also stay untracked.
	for i := 0; i < 5; i++ {
		rt.HandleAccess(1, addr, 8, true)
	}
	if got := rt.Stats().TrackedLines; got != 0 {
		t.Errorf("TrackedLines = %d, want 0 below threshold", got)
	}
}

func TestSingleThreadNeverReported(t *testing.T) {
	rt, h := newRuntime(t, testConfig())
	addr, _ := h.Alloc(0, 64, 0)
	for i := 0; i < 10000; i++ {
		rt.HandleAccess(1, addr+uint64(i%8)*8, 8, true)
	}
	if got := len(rt.Report().Findings); got != 0 {
		t.Errorf("single-thread traffic produced %d findings", got)
	}
}

func TestPredictionAcrossAdjacentLines(t *testing.T) {
	// The linear_regression scenario in miniature: two threads hammer
	// their own physical lines — no observed sharing — but the hot words
	// sit 16 bytes apart across the line boundary, so a placement shift
	// would falsely share them. Only prediction can find this.
	rt, h := newRuntime(t, testConfig())
	addr, _ := h.AllocWithOffset(0, 128, 0, 0) // two full lines
	hotA := addr + 56                          // last word of line 0, thread 1
	hotB := addr + 64                          // first word of line 1, thread 2
	for i := 0; i < 2000; i++ {
		rt.HandleAccess(1, hotA, 8, true)
		rt.HandleAccess(2, hotB, 8, true)
	}
	rep := rt.Report()
	if len(rep.Observed()) != 0 {
		t.Errorf("unexpected observed findings: %d", len(rep.Observed()))
	}
	pred := rep.Predicted()
	if len(pred) == 0 {
		t.Fatal("prediction failed to find latent false sharing")
	}
	sawAlignment, sawDoubled := false, false
	for _, f := range pred {
		if f.Sharing != report.SharingFalse {
			t.Errorf("predicted finding classified %v", f.Sharing)
		}
		switch f.Source {
		case report.SourcePredictedAlignment:
			sawAlignment = true
			if !f.Span.Contains(hotA) || !f.Span.Contains(hotB) {
				t.Errorf("alignment span %v misses hot pair", f.Span)
			}
		case report.SourcePredictedLineSize:
			sawDoubled = true
		}
		if f.Invalidations < rt.cfg.ReportThreshold {
			t.Errorf("unverified prediction reported: %d invalidations", f.Invalidations)
		}
	}
	if !sawAlignment {
		t.Error("no alignment-change prediction")
	}
	// Lines 0,1 of the heap have an even/odd absolute index pair only if
	// the base line index is even; DefaultBase>>6 is even, so expect it.
	if !sawDoubled {
		t.Error("no doubled-line-size prediction")
	}
}

func TestPredictionDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.Prediction = false
	rt, h := newRuntime(t, cfg)
	addr, _ := h.AllocWithOffset(0, 128, 0, 0)
	for i := 0; i < 2000; i++ {
		rt.HandleAccess(1, addr+56, 8, true)
		rt.HandleAccess(2, addr+64, 8, true)
	}
	rep := rt.Report()
	if len(rep.Predicted()) != 0 {
		t.Error("prediction produced findings while disabled")
	}
	if rt.Stats().VirtualLines != 0 {
		t.Error("virtual lines registered while prediction disabled")
	}
}

func TestObservedStillDetectedWithPredictionOff(t *testing.T) {
	cfg := testConfig()
	cfg.Prediction = false
	rt, h := newRuntime(t, cfg)
	addr, _ := h.AllocWithOffset(0, 64, 0, 0)
	pingPongWrites(rt, addr, addr+8, 500)
	if len(rt.Report().FalseSharing()) == 0 {
		t.Error("detection broken with prediction off")
	}
}

func TestSpanningAccessHitsBothLines(t *testing.T) {
	rt, h := newRuntime(t, testConfig())
	addr, _ := h.AllocWithOffset(0, 128, 0, 0)
	// A 16-byte write crossing the boundary, ping-ponged against another
	// thread writing line 1: both lines see traffic.
	for i := 0; i < 500; i++ {
		rt.HandleAccess(1, addr+56, 16, true)
		rt.HandleAccess(2, addr+72, 8, true)
	}
	stats := rt.Stats()
	if stats.TrackedLines < 2 {
		t.Errorf("TrackedLines = %d, want >= 2 for spanning access", stats.TrackedLines)
	}
	rep := rt.Report()
	if len(rep.FalseSharing()) == 0 {
		t.Error("spanning-access false sharing on line 1 missed")
	}
}

func TestAccessOutsideHeapIgnored(t *testing.T) {
	rt, _ := newRuntime(t, testConfig())
	rt.HandleAccess(1, 0x10, 8, true) // below heap
	rt.HandleAccess(1, 0, 0, true)    // zero size
	if rt.Stats().TrackedLines != 0 {
		t.Error("out-of-heap access created tracking state")
	}
}

func TestFreeResetsMetadata(t *testing.T) {
	rt, h := newRuntime(t, testConfig())
	addr, _ := h.AllocWithOffset(0, 64, 0, 0)
	// Heavy ping-pong but below report threshold.
	pingPongWrites(rt, addr, addr+8, 20)
	if err := h.Free(addr); err != nil {
		t.Fatal(err)
	}
	// A fresh same-class allocation reuses the memory; its metadata must
	// start clean, so single-thread traffic must not inherit history.
	addr2, _ := h.Alloc(0, 64, 0)
	for i := 0; i < 10000; i++ {
		rt.HandleAccess(3, addr2, 8, true)
	}
	for _, f := range rt.Report().Findings {
		if f.Span.Contains(addr2) {
			t.Errorf("reused memory inherited stale sharing: %+v", f)
		}
	}
}

func TestFlaggedObjectQuarantinedAfterReport(t *testing.T) {
	rt, h := newRuntime(t, testConfig())
	addr, _ := h.AllocWithOffset(0, 64, 0, 0)
	pingPongWrites(rt, addr, addr+8, 500)
	rep := rt.Report()
	if len(rep.FalseSharing()) == 0 {
		t.Fatal("no false sharing to flag")
	}
	if err := h.Free(addr); err != nil {
		t.Fatal(err)
	}
	addr2, _ := h.Alloc(0, 64, 0)
	if addr2 == addr {
		t.Error("flagged object memory reused")
	}
}

func TestReportRankedByInvalidations(t *testing.T) {
	rt, h := newRuntime(t, testConfig())
	a1, _ := h.AllocWithOffset(0, 64, 0, 0)
	a2, _ := h.AllocWithOffset(0, 64, 0, 0)
	pingPongWrites(rt, a1, a1+8, 100)  // fewer invalidations
	pingPongWrites(rt, a2, a2+8, 1000) // more invalidations
	rep := rt.Report()
	if len(rep.Findings) < 2 {
		t.Fatalf("findings = %d, want >= 2", len(rep.Findings))
	}
	for i := 1; i < len(rep.Findings); i++ {
		if rep.Findings[i].Invalidations > rep.Findings[i-1].Invalidations {
			t.Error("report not ranked by invalidations")
		}
	}
}

func TestReportFormatsEndToEnd(t *testing.T) {
	rt, h := newRuntime(t, testConfig())
	addr, _ := h.AllocWithOffset(0, 64, 0, 0)
	pingPongWrites(rt, addr, addr+8, 500)
	out := rt.Report().String()
	for _, want := range []string{"FALSE SHARING HEAP OBJECT", "Callsite stack", "Word level information", "by thread 1", "by thread 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSamplingStillDetects(t *testing.T) {
	cfg := testConfig()
	cfg.SampleWindow = 1000
	cfg.SampleBurst = 100 // 10% sampling
	rt, h := newRuntime(t, cfg)
	addr, _ := h.AllocWithOffset(0, 64, 0, 0)
	pingPongWrites(rt, addr, addr+8, 20000)
	rep := rt.Report()
	if len(rep.FalseSharing()) == 0 {
		t.Fatal("sampling lost the false sharing")
	}
	full, _ := newRuntime(t, testConfig())
	_ = full
	// Sampled invalidation counts must be lower than the unsampled bound.
	if inv := rep.FalseSharing()[0].Invalidations; inv >= 40000 {
		t.Errorf("sampled invalidations = %d, want well below 40000", inv)
	}
}

func TestConcurrentWorkloadSafety(t *testing.T) {
	rt, h := newRuntime(t, testConfig())
	addr, _ := h.AllocWithOffset(0, 64, 0, 0)
	// A barrier every round forces the four writers to interleave, so
	// invalidations accumulate deterministically above the threshold
	// (short unsynchronized goroutines can run back-to-back and produce
	// almost no interleaving).
	const workers, rounds = 4, 5000
	barrier := newBarrier(workers)
	var wg sync.WaitGroup
	for tid := 1; tid <= workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			word := addr + uint64((tid-1)*8)
			for i := 0; i < rounds; i++ {
				rt.HandleAccess(tid, word, 8, true)
				barrier.Wait()
			}
		}(tid)
	}
	wg.Wait()
	rep := rt.Report()
	if len(rep.FalseSharing()) == 0 {
		t.Error("concurrent false sharing not detected")
	}
	if got := rt.Stats().Accesses; got != workers*rounds {
		t.Errorf("accesses = %d, want %d", got, workers*rounds)
	}
}

// barrier is a reusable barrier: Wait blocks until n goroutines have
// called it, releases them together, and resets for the next round. The
// released writers then run their next round concurrently.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	n       int
	waiting int
	round   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond.L = &b.mu
	return b
}

func (b *barrier) Wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	if b.waiting++; b.waiting == b.n {
		b.waiting = 0
		b.round++
		b.cond.Broadcast()
		return
	}
	for round == b.round {
		b.cond.Wait()
	}
}

func TestStatsCounters(t *testing.T) {
	rt, h := newRuntime(t, testConfig())
	addr, _ := h.Alloc(0, 64, 0)
	rt.HandleAccess(1, addr, 8, true)
	rt.HandleAccess(1, addr, 8, false)
	s := rt.Stats()
	if s.Accesses != 2 || s.Writes != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.TrackingThreshold != DefaultTrackingThreshold ||
		cfg.PredictionThreshold != DefaultPredictionThreshold ||
		cfg.SampleWindow != DefaultSampleWindow ||
		cfg.SampleBurst != DefaultSampleBurst ||
		!cfg.Prediction {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
}

func BenchmarkHandleAccessCold(b *testing.B) {
	h := mem.MustNewHeap(mem.Config{Size: 64 << 20})
	rt, _ := NewRuntime(h, DefaultConfig())
	addr, _ := h.Alloc(0, 1<<20, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.HandleAccess(1, addr+uint64(i%(1<<20))&^7, 8, false)
	}
}

func BenchmarkHandleAccessHotLine(b *testing.B) {
	h := mem.MustNewHeap(mem.Config{Size: 64 << 20})
	rt, _ := NewRuntime(h, DefaultConfig())
	addr, _ := h.AllocWithOffset(0, 64, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.HandleAccess(i&1, addr+uint64(i&7)*8, 8, true)
	}
}

func TestConfigValidation(t *testing.T) {
	h, _ := mem.NewHeap(mem.Config{Size: 1 << 20})
	bad := []Config{
		{TrackingThreshold: 0, ReportThreshold: 1},
		{TrackingThreshold: 10, SampleWindow: 100, SampleBurst: 200},
		{TrackingThreshold: 10, SampleWindow: 100, SampleBurst: 0},
	}
	for i, cfg := range bad {
		if _, err := NewRuntime(h, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewRuntime(h, DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// Property: for any single-goroutine access stream, (a) a report never
// contains false sharing unless at least two threads wrote, and (b) the
// runtime's recorded access count equals the stream length (sizes > 0,
// non-spanning).
func TestPropReportSoundness(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		rt, h := func() (*Runtime, *mem.Heap) {
			h, _ := mem.NewHeap(mem.Config{Size: 1 << 20})
			rt, _ := NewRuntime(h, Config{
				TrackingThreshold: 5, PredictionThreshold: 10,
				ReportThreshold: 20, Prediction: true,
			})
			return rt, h
		}()
		addr, _ := h.Alloc(0, 256, 0)
		writers := map[int]bool{}
		threads := map[int]bool{}
		steps := int(n%800) + 1
		for i := 0; i < steps; i++ {
			tid := rng.Intn(3)
			off := uint64(rng.Intn(31)) * 8
			w := rng.Intn(2) == 0
			if w {
				writers[tid] = true
			}
			threads[tid] = true
			rt.HandleAccess(tid, addr+off, 8, w)
		}
		rep := rt.Report()
		// Soundness: false sharing needs at least one writer and at
		// least two distinct threads in the stream.
		if len(rep.FalseSharing()) > 0 && (len(writers) < 1 || len(threads) < 2) {
			return false
		}
		return rt.Stats().Accesses == uint64(steps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuadrupledLinePrediction(t *testing.T) {
	// Two threads hammer lines 1 and 2 of a 256-byte object: clean under
	// 64- AND 128-byte lines (lines 1,2 do not fuse at factor 2 when the
	// object is 256-aligned), but falsely shared under 256-byte lines.
	cfg := testConfig()
	cfg.LineSizeFactors = []int{2, 4}
	h, err := mem.NewHeap(mem.Config{Size: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 256-aligned object: allocate with offset 0 and skip to a 256-aligned
	// start inside it.
	raw, _ := h.AllocWithOffset(0, 512+256, 0, 0)
	addr := (raw + 255) &^ 255
	hotA := addr + 64 + 56 // tail of line 1
	hotB := addr + 128     // head of line 2
	for i := 0; i < 2000; i++ {
		rt.HandleAccess(1, hotA, 8, true)
		rt.HandleAccess(2, hotB, 8, true)
	}
	rep := rt.Report()
	if len(rep.Observed()) != 0 {
		t.Fatal("physical sharing observed; layout wrong")
	}
	var sawQuad bool
	for _, f := range rep.Predicted() {
		if f.Source == report.SourcePredictedLineSize && f.Span.Size() == 256 {
			sawQuad = true
			if f.Span.Start%256 != 0 {
				t.Errorf("quad span %v not 256-aligned", f.Span)
			}
		}
		if f.Span.Size() == 128 && f.Source == report.SourcePredictedLineSize {
			t.Errorf("lines 1,2 fused at factor 2: %v", f.Span)
		}
	}
	if !sawQuad {
		t.Errorf("no quadrupled-line prediction; report:\n%s", rep.String())
	}
}

func TestLineSizeFactorValidation(t *testing.T) {
	h, _ := mem.NewHeap(mem.Config{Size: 1 << 20})
	cfg := testConfig()
	cfg.LineSizeFactors = []int{3}
	if _, err := NewRuntime(h, cfg); err == nil {
		t.Error("factor 3 accepted")
	}
	cfg.LineSizeFactors = []int{1}
	if _, err := NewRuntime(h, cfg); err == nil {
		t.Error("factor 1 accepted")
	}
}
