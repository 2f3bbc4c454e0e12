package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"predator/internal/mem"
	"predator/internal/obs"
	"predator/internal/obs/spans"
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

// tracedObserver is an observer with a span tracer, the kind that carries
// the phase-latency histograms.
func tracedObserver() *obs.Observer {
	return obs.New(obs.NewRegistry(), spans.New(spans.Config{}))
}

// A freed line keeps its hot-pair search claim: written past
// PredictionThreshold again, it is not searched a second time.
func TestFreedLineNotSearchedAgain(t *testing.T) {
	cfg := testConfig()
	cfg.Observer = tracedObserver()
	rt, h := newRuntime(t, cfg)
	addr, _ := h.AllocWithOffset(0, 64, 0, 0)
	line, _ := rt.mapping.Index(addr)
	writePast := func() {
		for i := uint64(0); i < cfg.TrackingThreshold+cfg.PredictionThreshold; i++ {
			rt.HandleAccess(1, addr, 8, true)
		}
	}
	writePast()
	if n := rt.predictH.Count(); n != 1 {
		t.Fatalf("%d hot-pair searches before the free, want 1", n)
	}
	if err := h.Free(addr); err != nil {
		t.Fatal(err)
	}
	track := rt.sh.Track(line)
	if track == nil || track.Writes() != 0 {
		t.Fatal("free did not reset the line's track")
	}
	writePast()
	if track.Writes() < cfg.PredictionThreshold {
		t.Fatalf("line rewritten only %d times", track.Writes())
	}
	if n := rt.predictH.Count(); n != 1 {
		t.Errorf("%d hot-pair searches after the line was freed and rewritten, want 1", n)
	}
}

// A hot-pair search leaves the searching goroutine's pprof labels alone, so
// a harness worker keeps predator_phase=workload and its predator_worker
// name for the whole run.
func TestSearchKeepsGoroutineLabels(t *testing.T) {
	cfg := testConfig()
	cfg.Observer = tracedObserver()
	rt, h := newRuntime(t, cfg)
	addr, _ := h.AllocWithOffset(0, 64, 0, 0)
	searched, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	go pprof.Do(context.Background(),
		pprof.Labels("predator_phase", "workload", "predator_worker", "label-probe"),
		func(context.Context) {
			for i := uint64(0); i < cfg.TrackingThreshold+cfg.PredictionThreshold; i++ {
				rt.HandleAccess(1, addr, 8, true)
			}
			close(searched)
			<-release
		})
	<-searched
	if n := rt.predictH.Count(); n != 1 {
		t.Fatalf("%d hot-pair searches, want 1", n)
	}
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if want := `# labels: {"predator_phase":"workload", "predator_worker":"label-probe"}`; !strings.Contains(buf.String(), want) {
		t.Errorf("goroutine profile lost the worker's labels after a search; want %s in:\n%s", want, buf.String())
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

// TestCountsPerTIDExact: workers count their accesses in per-tid slots and
// publish them in batches. Beside the workers, LiveStats reads only the
// published totals, which lag by less than obs.SyncBatch per tid; once they
// have joined, Stats and the registry counters are exact. Two tids outside
// the slot table count on the shared totals instead, and never size it.
func TestCountsPerTIDExact(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Observer = obs.New(reg, nil)
	rt, h := newRuntime(t, cfg)
	addr, err := h.AllocWithOffset(0, 256, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tids := []int{0, 1, 2, 3, 7, maxCountSlots, 1 << 30}
	var wantAccesses, wantWrites uint64
	perTID := make([]int, len(tids))
	for i := range tids {
		perTID[i] = 3*obs.SyncBatch + 41*i + 5
		wantAccesses += uint64(perTID[i])
		wantWrites += uint64((perTID[i] + 1) / 2)
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := rt.LiveStats(); s.Accesses > wantAccesses || s.Writes > wantWrites {
				t.Errorf("live stats %d accesses, %d writes exceed the run's %d, %d", s.Accesses, s.Writes, wantAccesses, wantWrites)
			}
		}
	}()
	var wg sync.WaitGroup
	for i, tid := range tids {
		wg.Add(1)
		go func(tid, n int) {
			defer wg.Done()
			word := addr + uint64(tid%4)*8
			for j := 0; j < n; j++ {
				rt.HandleAccess(tid, word, 8, j%2 == 0)
			}
		}(tid, perTID[i])
	}
	wg.Wait()
	close(stop)
	<-scraped

	live := rt.LiveStats()
	if lag := wantAccesses - live.Accesses; live.Accesses > wantAccesses || lag >= uint64(len(tids))*obs.SyncBatch {
		t.Errorf("live accesses = %d, want within %d below %d", live.Accesses, len(tids)*obs.SyncBatch, wantAccesses)
	}
	s := rt.Stats()
	if s.Accesses != wantAccesses || s.Writes != wantWrites {
		t.Errorf("stats = %d accesses, %d writes; want %d, %d", s.Accesses, s.Writes, wantAccesses, wantWrites)
	}
	snap := reg.Snapshot()
	if got := uint64(snap["predator_accesses_total"]); got != wantAccesses {
		t.Errorf("predator_accesses_total = %d, want %d", got, wantAccesses)
	}
	if got := uint64(snap["predator_writes_total"]); got != wantWrites {
		t.Errorf("predator_writes_total = %d, want %d", got, wantWrites)
	}
	if n := len(*rt.slots.Load()); n != 8 {
		t.Errorf("slot table holds %d tids, want 8 (tids 0 to 7)", n)
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

// NewRuntime sizes nothing to the heap but the shadow chunk directory:
// per-line state is allocated as lines are written.
func TestNewRuntimeAllocatesLittle(t *testing.T) {
	h, err := mem.NewHeap(mem.Config{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt, err := NewRuntime(h, DefaultConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10 {
		t.Errorf("NewRuntime over a 64 MiB heap allocated %d bytes, want <= %d", d, 64<<10)
	}
	runtime.KeepAlive(rt)
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

// BenchmarkHandleAccessPredicted is the access path of a line that carries
// virtual lines, under the paper's sampling: two threads write one word each
// on either side of a line boundary until prediction registers the centered
// line over the pair and the doubled line over both lines, then one op is
// one aligned word read or write, as linear_regression's workers make them.
// "serial" alternates the two threads on one goroutine; "parallel" makes
// each goroutine a thread of its own, writing the word of its tid's parity,
// so that at -cpu 2 each line has one writer as in linear_regression.
func BenchmarkHandleAccessPredicted(b *testing.B) {
	setup := func(b *testing.B) (*Runtime, uint64) {
		h := mem.MustNewHeap(mem.Config{Size: 64 << 20})
		rt, _ := NewRuntime(h, DefaultConfig())
		obj, _ := h.AllocWithOffset(0, 256, 0, 0)
		lo := (obj + 127) &^ 127 // the first line of a doubled line
		for i := 0; i < 4000; i++ {
			tid := i & 1
			rt.HandleAccess(tid, lo+56+8*uint64(tid), 8, i&2 == 0)
		}
		kinds := map[string]bool{}
		for _, v := range rt.vreg.Tracks() {
			kinds[v.Pair.Kind.String()] = true
		}
		if len(kinds) != 2 {
			b.Fatalf("virtual line kinds %v, want a centered and a doubled line", kinds)
		}
		return rt, lo
	}
	b.Run("serial", func(b *testing.B) {
		rt, lo := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tid := i & 1
			rt.HandleAccess(tid, lo+56+8*uint64(tid), 8, i&2 == 0)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		rt, lo := setup(b)
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			tid := int(next.Add(1) - 1)
			addr := lo + 56 + 8*uint64(tid&1)
			for i := 0; pb.Next(); i++ {
				rt.HandleAccess(tid, addr, 8, i&1 == 0)
			}
		})
	})
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
