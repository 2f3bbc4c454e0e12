package predator_test

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"

	"predator"
	"predator/internal/core"
	"predator/internal/harness"
	"predator/internal/trace"
)

// testRC builds test-scale thresholds with no sampling.
func testRC() predator.RuntimeConfig {
	cfg := predator.DefaultRuntimeConfig()
	cfg.TrackingThreshold = 10
	cfg.PredictionThreshold = 20
	cfg.ReportThreshold = 50
	cfg.SampleWindow = 0
	return cfg
}

// pingPong runs two interleaving writers on addrA/addrB through the public
// API. The writers pass a turn back and forth every 16 writes, so their
// writes interleave even when the OS runs the two goroutines' threads one
// after the other, as it does on a loaded host.
func pingPong(d *predator.Detector, addrA, addrB uint64, n int) {
	threads := []*predator.Thread{d.Thread("a"), d.Thread("b")}
	addrs := []uint64{addrA, addrB}
	// One turn token circulates; each channel holds it for its writer.
	turn := []chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	turn[0] <- struct{}{}
	var wg sync.WaitGroup
	for k := range threads {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if i%16 == 0 {
					<-turn[k]
				}
				threads[k].Store64(addrs[k], uint64(i))
				if i%16 == 15 || i == n-1 {
					turn[1-k] <- struct{}{}
				}
			}
		}(k)
	}
	wg.Wait()
}

func TestPublicAPIProblemsAndSuggestions(t *testing.T) {
	cfg := testRC()
	d, err := predator.New(predator.Options{HeapSize: 8 << 20, Runtime: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	main := d.Thread("main")
	addr, err := main.AllocWithOffset(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	pingPong(d, addr, addr+8, 30000)

	rep := d.Report()
	problems := rep.Problems()
	if len(problems) != 1 {
		t.Fatalf("problems = %d, want 1", len(problems))
	}
	if !problems[0].HasObject || problems[0].Object.Start != addr {
		t.Errorf("problem object = %+v", problems[0].Object)
	}

	advice := d.Suggest(rep, predator.SuggestOptions{})
	if len(advice) != 1 {
		t.Fatalf("advice = %d, want 1", len(advice))
	}
	if advice[0].Stride == 0 || !strings.Contains(advice[0].Text, "pad") {
		t.Errorf("advice = %+v", advice[0])
	}

	// With a layout supplied, the advice names fields.
	st, err := predator.NewLayout("counters",
		predator.LayoutField{Name: "hits", Size: 8},
		predator.LayoutField{Name: "misses", Size: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	advice = d.Suggest(rep, predator.SuggestOptions{
		Layouts: map[uint64]*predator.StructLayout{addr: st},
	})
	if !strings.Contains(advice[0].Text, "hits") || !strings.Contains(advice[0].Text, "misses") {
		t.Errorf("layout-aware advice missing field names:\n%s", advice[0].Text)
	}
}

func TestPublicAPIWith128ByteLines(t *testing.T) {
	// The detector is line-size generic: on 128-byte-line "hardware", two
	// counters 64 bytes apart ARE physically falsely shared (no
	// prediction needed), and its doubled-line prediction covers 256.
	cfg := testRC()
	d, err := predator.New(predator.Options{HeapSize: 8 << 20, LineSize: 128, Runtime: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if d.Geometry().Size() != 128 {
		t.Fatalf("line size = %d", d.Geometry().Size())
	}
	main := d.Thread("main")
	addr, err := main.AllocWithOffset(128, 0)
	if err != nil {
		t.Fatal(err)
	}
	pingPong(d, addr, addr+64, 30000)
	rep := d.Report()
	found := false
	for _, f := range rep.FalseSharing() {
		if f.Source == predator.SourceObserved {
			found = true
			if f.Span.Size() != 128 {
				t.Errorf("finding span = %v, want one 128-byte line", f.Span)
			}
		}
	}
	if !found {
		t.Error("64-byte-apart counters not observed as FS on 128-byte lines")
	}
}

func TestPublicAPIPolicyWritesOnly(t *testing.T) {
	cfg := testRC()
	d, err := predator.New(predator.Options{
		HeapSize: 8 << 20, Runtime: &cfg,
		Policy: predator.Policy{WritesOnly: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	main := d.Thread("main")
	addr, _ := main.AllocWithOffset(64, 0)
	// Writer + reader: invisible to writes-only instrumentation.
	writer := d.Thread("writer")
	reader := d.Thread("reader")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 30000; i++ {
			writer.Store64(addr, uint64(i))
			if i%16 == 15 {
				runtime.Gosched()
			}
		}
	}()
	go func() {
		defer wg.Done()
		var sink uint64
		for i := 0; i < 30000; i++ {
			sink += reader.Load64(addr + 8)
			if i%16 == 15 {
				runtime.Gosched()
			}
		}
		_ = sink
	}()
	wg.Wait()
	if d.Report().FalseSharing() != nil {
		t.Error("writes-only policy detected read-write sharing")
	}
	if d.Stats().Suppressed == 0 {
		t.Error("no events suppressed under writes-only policy")
	}
}

func TestWorkloadTraceRoundTripThroughRuntime(t *testing.T) {
	// Record a registered workload via the harness trace path, replay it,
	// and check the replayed findings match a live run's detection.
	w, ok := harness.Get("histogram")
	if !ok {
		t.Fatal("histogram not registered")
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Header{
		HeapBase: 0x400000000, HeapSize: 64 << 20, LineSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.ExecuteSim(w, harness.Options{Threads: 8, Buggy: true}, tw)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if res.Checksum == 0 {
		t.Fatal("workload computed nothing")
	}
	rc := core.Config{TrackingThreshold: 50, PredictionThreshold: 100, ReportThreshold: 200, Prediction: true}
	replayed, err := trace.Replay(bytes.NewReader(buf.Bytes()), rc)
	if err != nil {
		t.Fatal(err)
	}
	// Without alloc mirroring the replay still detects the sharing; the
	// findings simply lack object attribution.
	if len(replayed.Report.FalseSharing()) == 0 {
		t.Error("replayed trace lost the histogram false sharing")
	}
}

func TestDetectorAcrossManyThreads(t *testing.T) {
	cfg := testRC()
	d, err := predator.New(predator.Options{HeapSize: 16 << 20, Runtime: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	main := d.Thread("main")
	const workers = 32
	addr, err := main.AllocWithOffset(8*workers, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		th := d.Thread("w")
		wg.Add(1)
		go func(th *predator.Thread, word uint64) {
			defer wg.Done()
			for n := 0; n < 5000; n++ {
				th.Store64(word, uint64(n))
				if n%16 == 15 {
					runtime.Gosched()
				}
			}
		}(th, addr+uint64(i)*8)
	}
	wg.Wait()
	rep := d.Report()
	if len(rep.FalseSharing()) == 0 {
		t.Fatal("32-thread false sharing not detected")
	}
	// All 4 affected lines belong to one object -> one problem.
	if got := len(rep.Problems()); got != 1 {
		t.Errorf("problems = %d, want 1", got)
	}
}

func TestSequentialProgramReportsNothing(t *testing.T) {
	cfg := testRC()
	d, err := predator.New(predator.Options{HeapSize: 8 << 20, Runtime: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	th := d.Thread("solo")
	addr, _ := th.Alloc(4096)
	for i := 0; i < 100000; i++ {
		off := uint64(i%512) * 8
		th.Store64(addr+off, th.Load64(addr+off)+1)
	}
	if rep := d.Report(); len(rep.Findings) != 0 {
		t.Errorf("sequential program produced findings:\n%s", rep.String())
	}
}
