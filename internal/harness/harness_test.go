package harness

import (
	"errors"
	"sync/atomic"
	"testing"

	"predator/internal/cacheline"
	"predator/internal/core"
	"predator/internal/elide"
	"predator/internal/instr"
	"predator/internal/mem"
)

// fakeWorkload is a minimal workload: threads ping-pong writes on one line
// when Buggy, on separate lines when fixed.
type fakeWorkload struct{ name string }

func (f fakeWorkload) Name() string          { return f.name }
func (f fakeWorkload) Suite() string         { return "test" }
func (f fakeWorkload) Description() string   { return "synthetic ping-pong" }
func (f fakeWorkload) HasFalseSharing() bool { return true }

func (f fakeWorkload) Run(c *Ctx) (uint64, error) {
	// The fixed variant pads to 128 bytes: 64-byte slots would still be
	// falsely shared under PREDATOR's doubled-line-size prediction.
	stride := uint64(128)
	if c.Buggy {
		stride = 8
	}
	t0 := c.NewThread("alloc")
	addr, err := t0.Alloc(stride*uint64(c.Threads) + 64)
	if err != nil {
		return 0, err
	}
	iters := 10000 * c.Scale
	c.Parallel(c.Threads, "worker", func(t *instr.Thread, id int) {
		word := addr + uint64(id)*stride
		for i := 0; i < iters; i++ {
			t.Store64(word, uint64(i))
			c.MaybeYield(i)
		}
	})
	var sum uint64
	for id := 0; id < c.Threads; id++ {
		sum += t0.Load64(addr + uint64(id)*stride)
	}
	return sum, nil
}

type failingWorkload struct{}

func (failingWorkload) Name() string             { return "failing" }
func (failingWorkload) Suite() string            { return "test" }
func (failingWorkload) Description() string      { return "always errors" }
func (failingWorkload) HasFalseSharing() bool    { return false }
func (failingWorkload) Run(*Ctx) (uint64, error) { return 0, errors.New("boom") }

func testOpts(mode Mode, buggy bool) Options {
	return Options{
		Mode:     mode,
		Threads:  4,
		HeapSize: 8 << 20,
		Buggy:    buggy,
		Runtime:  &testRuntimeConfig,
	}
}

var testRuntimeConfig = func() (c core.Config) {
	c.TrackingThreshold = 10
	c.PredictionThreshold = 20
	c.ReportThreshold = 50
	c.Prediction = true
	return
}()

func TestExecuteBuggyDetects(t *testing.T) {
	// Deterministic: the workers must interleave on the shared line however
	// the host schedules goroutines.
	opts := testOpts(ModePredict, true)
	opts.Deterministic = true
	res, err := Execute(fakeWorkload{name: "fw1"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FalseSharingFound() {
		t.Error("buggy variant not detected")
	}
	if res.Duration <= 0 {
		t.Error("duration not measured")
	}
	if res.RuntimeStats.Accesses == 0 {
		t.Error("no accesses recorded")
	}
}

func TestExecuteFixedClean(t *testing.T) {
	res, err := Execute(fakeWorkload{name: "fw2"}, testOpts(ModePredict, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.FalseSharingFound() {
		t.Errorf("fixed variant flagged: %s", res.Report.String())
	}
}

func TestChecksumStableAcrossVariants(t *testing.T) {
	buggy, err := Execute(fakeWorkload{name: "fw3"}, testOpts(ModePredict, true))
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Execute(fakeWorkload{name: "fw4"}, testOpts(ModePredict, false))
	if err != nil {
		t.Fatal(err)
	}
	if buggy.Checksum != fixed.Checksum {
		t.Errorf("checksums differ: %d vs %d", buggy.Checksum, fixed.Checksum)
	}
}

func TestNativeModeProducesNoReport(t *testing.T) {
	res, err := Execute(fakeWorkload{name: "fw5"}, testOpts(ModeNative, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != nil {
		t.Error("native mode produced a report")
	}
	if res.FalseSharingFound() {
		t.Error("native mode found false sharing")
	}
}

func TestDetectModeDisablesPrediction(t *testing.T) {
	res, err := Execute(fakeWorkload{name: "fw6"}, testOpts(ModeDetect, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeStats.VirtualLines != 0 {
		t.Error("PREDATOR-NP registered virtual lines")
	}
}

func TestExecutePropagatesWorkloadError(t *testing.T) {
	if _, err := Execute(failingWorkload{}, testOpts(ModeNative, false)); err == nil {
		t.Error("workload error swallowed")
	}
}

func TestMeasureMemory(t *testing.T) {
	opts := testOpts(ModePredict, true)
	opts.MeasureMemory = true
	res, err := Execute(fakeWorkload{name: "fw7"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemAfter == 0 {
		t.Error("memory not measured")
	}
	if res.MemUsed() < 8<<20 {
		t.Errorf("MemUsed = %d, want at least the simulated heap", res.MemUsed())
	}
}

func TestRegistry(t *testing.T) {
	w := fakeWorkload{name: "registry_probe"}
	Register(w)
	got, ok := Get("registry_probe")
	if !ok || got.Name() != "registry_probe" {
		t.Fatal("Get failed")
	}
	if _, ok := Get("no_such_workload"); ok {
		t.Error("phantom workload")
	}
	found := false
	for _, x := range All() {
		if x.Name() == "registry_probe" {
			found = true
		}
	}
	if !found {
		t.Error("All() missed registered workload")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(w)
}

func TestModeString(t *testing.T) {
	if ModeNative.String() != "Original" || ModeDetect.String() != "PREDATOR-NP" ||
		ModePredict.String() != "PREDATOR" || Mode(9).String() == "" {
		t.Error("mode names wrong")
	}
}

func TestOffsetSentinels(t *testing.T) {
	o := Options{}.normalized()
	if o.Offset != UseDefaultOffset {
		t.Error("zero Offset should normalize to UseDefaultOffset")
	}
	o = Options{Offset: ForceOffsetZero}.normalized()
	if o.Offset != ForceOffsetZero {
		t.Error("ForceOffsetZero lost in normalization")
	}
}

func TestCtxRandDeterministic(t *testing.T) {
	c1 := &Ctx{Seed: 7}
	c2 := &Ctx{Seed: 7}
	if c1.Rand().Uint64() != c2.Rand().Uint64() {
		t.Error("Rand not deterministic for equal seeds")
	}
}

func TestExecuteSimRequiresSink(t *testing.T) {
	if _, err := ExecuteSim(fakeWorkload{name: "s1"}, testOpts(ModeNative, true), nil); err == nil {
		t.Error("nil sink accepted")
	}
}

// countingSink counts deliveries; sinks are invoked from every worker
// goroutine concurrently (core.Runtime is one), so the counter is atomic.
type countingSink struct{ n atomic.Uint64 }

func (c *countingSink) HandleAccess(int, uint64, uint64, bool) { c.n.Add(1) }

func TestExecuteSimDeliversAllAccesses(t *testing.T) {
	sink := &countingSink{}
	res, err := ExecuteSim(fakeWorkload{name: "s2"}, testOpts(ModeNative, true), sink)
	if err != nil {
		t.Fatal(err)
	}
	if sink.n.Load() == 0 {
		t.Error("sink saw nothing")
	}
	if res.Report != nil {
		t.Error("sim execution produced a report")
	}
}

func TestExecuteSimOnHeapUsesProvidedHeap(t *testing.T) {
	h, err := mem.NewHeap(mem.Config{Size: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	h.AddAllocHook(func(mem.Object) { seen++ })
	sink := &countingSink{}
	if _, err := ExecuteSimOnHeap(fakeWorkload{name: "s3"}, testOpts(ModeNative, true), h, sink); err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Error("workload did not allocate from the provided heap")
	}
	if _, err := ExecuteSimOnHeap(fakeWorkload{name: "s4"}, testOpts(ModeNative, true), nil, sink); err == nil {
		t.Error("nil heap accepted")
	}
}

func TestDeterministicOptionsPlumbed(t *testing.T) {
	opts := testOpts(ModePredict, true)
	opts.Deterministic = true
	opts.DeterministicGrain = 8
	a, err := Execute(fakeWorkload{name: "d1"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(fakeWorkload{name: "d2"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.Report.FalseSharing(), b.Report.FalseSharing()
	if len(fa) == 0 || len(fa) != len(fb) {
		t.Fatalf("findings: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Invalidations != fb[i].Invalidations {
			t.Errorf("deterministic mismatch at %d: %d vs %d",
				i, fa[i].Invalidations, fb[i].Invalidations)
		}
	}
}

// elideSafetyWorkload mixes a genuinely falsely-shared hot array with a
// read-only lookup table large enough to have an elidable interior: workers
// ping-pong writes on packed hot words (the finding) while streaming reads
// from the table's interior lines (the elision target).
type elideSafetyWorkload struct{ name string }

func (f elideSafetyWorkload) Name() string          { return f.name }
func (f elideSafetyWorkload) Suite() string         { return "test" }
func (f elideSafetyWorkload) Description() string   { return "hot array + read-only table" }
func (f elideSafetyWorkload) HasFalseSharing() bool { return true }

const elideLutSize = 64 * 64 // 64 cache lines: plenty of interior past the margin

func (f elideSafetyWorkload) Run(c *Ctx) (uint64, error) {
	lut, err := c.Heap.DefineGlobal("elide_safety_lut", elideLutSize)
	if err != nil {
		return 0, err
	}
	t0 := c.NewThread("init")
	for i := uint64(0); i < elideLutSize; i += 8 {
		t0.Store64(lut+i, i)
	}
	hot, err := t0.Alloc(uint64(c.Threads)*8 + 64)
	if err != nil {
		return 0, err
	}
	iters := 4000 * c.Scale
	c.Parallel(c.Threads, "worker", func(t *instr.Thread, id int) {
		word := hot + uint64(id)*8
		var acc uint64
		for i := 0; i < iters; i++ {
			// Interior reads only: offsets land in [512, 2560), well clear
			// of the table's first and last lines plus the safety margin.
			acc += t.Load64(lut + 512 + (uint64(id*8+i)*8)%2048)
			t.Store64(word, acc)
			c.MaybeYield(i)
		}
	})
	return t0.Load64(hot), nil
}

// TestElisionPreservesDeterministicFindings is the safety contract: under the
// deterministic scheduler, a run with an elision manifest must produce
// bit-identical findings to a manifest-free run — elision may only remove
// work, never evidence. The CI smoke step checks the same property end to end
// through predbench.
func TestElisionPreservesDeterministicFindings(t *testing.T) {
	opts := testOpts(ModePredict, true)
	opts.Deterministic = true
	opts.DeterministicGrain = 8
	opts.Elide = ElideOff

	base, err := Execute(elideSafetyWorkload{name: "es_base"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if base.Elided != 0 {
		t.Fatalf("manifest-free run elided %d accesses", base.Elided)
	}
	if len(base.Report.FalseSharing()) == 0 {
		t.Fatal("workload produced no findings to compare")
	}

	opts.Elide = &elide.Manifest{
		Version:  elide.Version,
		LineSize: cacheline.DefaultSize,
		Entries: []elide.Entry{{
			Proof:   elide.ProofReadonly,
			Mode:    elide.ModeReads,
			Subject: "lut",
			Label:   "elide_safety_lut",
		}},
	}
	elided, err := Execute(elideSafetyWorkload{name: "es_elide"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if elided.Elided == 0 {
		t.Fatal("manifest bound nothing: no accesses elided")
	}
	if elided.RuntimeStats.Accesses >= base.RuntimeStats.Accesses {
		t.Errorf("elision did not reduce delivered accesses: %d vs %d",
			elided.RuntimeStats.Accesses, base.RuntimeStats.Accesses)
	}

	fa, fb := base.Report.FalseSharing(), elided.Report.FalseSharing()
	if len(fa) != len(fb) {
		t.Fatalf("finding counts diverged: %d without manifest, %d with", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Span != fb[i].Span || fa[i].Invalidations != fb[i].Invalidations {
			t.Errorf("finding %d diverged: span %+v inv %d vs span %+v inv %d",
				i, fa[i].Span, fa[i].Invalidations, fb[i].Span, fb[i].Invalidations)
		}
	}
}

func TestPolicyPlumbedThroughOptions(t *testing.T) {
	opts := testOpts(ModePredict, true)
	opts.Policy = instr.Policy{WritesOnly: true}
	res, err := Execute(fakeWorkload{name: "p1"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// fakeWorkload's final reduction loads must be suppressed.
	if res.RuntimeStats.Accesses != res.RuntimeStats.Writes {
		t.Errorf("reads leaked through writes-only policy: %d vs %d",
			res.RuntimeStats.Accesses, res.RuntimeStats.Writes)
	}
}
