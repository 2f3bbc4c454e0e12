package trace

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"predator/internal/callsite"
	"predator/internal/core"
	"predator/internal/instr"
	"predator/internal/mem"
)

func testHeader() Header {
	return Header{HeapBase: 0x400000000, HeapSize: 4 << 20, LineSize: 64}
}

func TestRoundTripAllOps(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{Op: OpThread, TID: 0, Name: "main"},
		{Op: OpAlloc, TID: 0, Addr: 0x400000040, Size: 128},
		{Op: OpWrite, TID: 0, Addr: 0x400000040, Size: 8},
		{Op: OpRead, TID: 1, Addr: 0x400000048, Size: 4},
		{Op: OpGlobal, Addr: 0x400010000, Size: 64, Name: "counters"},
		{Op: OpFree, Addr: 0x400000040},
	}
	for _, e := range events {
		if err := w.WriteEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Events() != uint64(len(events)) {
		t.Errorf("Events = %d", w.Events())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header() != testHeader() {
		t.Errorf("header = %+v", r.Header())
	}
	for i, want := range events {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Errorf("event %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want io.EOF at end, got %v", err)
	}
}

// TestRoundTripAcrossRefills decodes a trace of about three reader buffers
// whose records cross every refill of the reader's window. Every access
// record is 26 bytes: a 5-byte thread id and a 10-byte address and size.
// One OpGlobal, with a name 4 bytes short of maxStringLen, starts partway
// through the first window, so its record crosses that window's end; it
// ends 21 bytes before the end of the window it then starts, and a window of
// whole access records ends 11 bytes into one, so an access record crosses
// every later refill.
func TestRoundTripAcrossRefills(t *testing.T) {
	const before, after = 20000, 60000
	global := Event{Op: OpGlobal, Addr: 1<<63 | 0x40, Size: 1<<63 | 64, Name: strings.Repeat("g", maxStringLen-4)}
	event := func(i int) Event {
		if i == before {
			return global
		}
		op := OpRead
		if i%2 == 1 {
			op = OpWrite
		}
		return Event{Op: op, TID: math.MaxInt32 - int32(i%7), Addr: 1<<63 | uint64(i)*8, Size: 1<<63 | uint64(i%64+1)}
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < before+1+after; i++ {
		if err := w.WriteEvent(event(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) <= 2*maxRecordSize {
		t.Fatalf("trace of %d bytes fits in two reader buffers", len(raw))
	}

	for _, open := range []func(io.Reader) (*Reader, error){NewReader, NewSalvageReader} {
		r, err := open(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var events, refills, straddles int
		winStart, winLen := int64(-1), 0
		for ; ; events++ {
			start := r.Offset()
			e, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("event %d: %v", events, err)
			}
			if want := event(events); e != want {
				t.Fatalf("event %d = {%d %d %#x %#x name of %d bytes}, want {%d %d %#x %#x name of %d bytes}",
					events, e.Op, e.TID, e.Addr, e.Size, len(e.Name), want.Op, want.TID, want.Addr, want.Size, len(want.Name))
			}
			// A refill moves the window's start to the record it decodes.
			if ws := r.Offset() - int64(r.pos); ws != winStart {
				if winLen == maxRecordSize {
					refills++
					if end := winStart + int64(winLen); start < end && r.Offset() > end {
						straddles++
					}
				}
				winStart, winLen = ws, len(r.win)
			}
		}
		if events != before+1+after || r.Offset() != int64(len(raw)) {
			t.Errorf("decoded %d events to offset %d, want %d to %d", events, r.Offset(), before+1+after, len(raw))
		}
		if refills < 3 || straddles != refills {
			t.Errorf("a record crossed %d of %d refills of a full window", straddles, refills)
		}
		if s := r.Stats(); !s.Clean() {
			t.Errorf("clean trace reported damage: %+v", s)
		}
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOTATRACEFILE-------")); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	w.WriteEvent(Event{Op: OpWrite, TID: 1, Addr: 0x400000040, Size: 8})
	w.Flush()
	raw := buf.Bytes()
	r, err := NewReader(bytes.NewReader(raw[:len(raw)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("truncated event decoded without error")
	}
}

func TestUnknownOp(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	w.Flush()
	buf.WriteByte(0xEE)
	r, _ := NewReader(&buf)
	if _, err := r.Next(); err == nil {
		t.Error("unknown op decoded")
	}
}

func TestWriterAsSink(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	w.HandleAccess(3, 0x400000100, 8, true)
	w.HandleAccess(4, 0x400000108, 2, false)
	w.Flush()
	r, _ := NewReader(&buf)
	e1, _ := r.Next()
	e2, _ := r.Next()
	if e1.Op != OpWrite || e1.TID != 3 || e1.Size != 8 {
		t.Errorf("e1 = %+v", e1)
	}
	if e2.Op != OpRead || e2.TID != 4 || e2.Size != 2 {
		t.Errorf("e2 = %+v", e2)
	}
}

func TestConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	var wg sync.WaitGroup
	const workers, per = 4, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				w.HandleAccess(tid, 0x400000000+uint64(j*8), 8, true)
			}
		}(i)
	}
	wg.Wait()
	w.Flush()
	r, _ := NewReader(&buf)
	count := 0
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != workers*per {
		t.Errorf("decoded %d events, want %d", count, workers*per)
	}
}

// record runs a small false-sharing workload while teeing accesses into a
// trace, returning the encoded trace.
func record(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	h, err := mem.NewHeap(mem.Config{Base: 0x400000000, Size: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rh := &RecordingHeap{Heap: h, W: w}
	in := instr.New(h, w, instr.Policy{})
	t1, t2 := in.NewThread("a"), in.NewThread("b")
	w.WriteEvent(Event{Op: OpThread, TID: 0, Name: "a"})
	w.WriteEvent(Event{Op: OpThread, TID: 1, Name: "b"})
	addr, err := rh.Alloc(t1.ID(), 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		t1.Store64(addr, uint64(i))
		t2.Store64(addr+8, uint64(i))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func replayConfig() core.Config {
	return core.Config{
		TrackingThreshold:   10,
		PredictionThreshold: 20,
		ReportThreshold:     50,
		Prediction:          true,
	}
}

func TestReplayDetectsRecordedFalseSharing(t *testing.T) {
	buf := record(t)
	res, err := Replay(bytes.NewReader(buf.Bytes()), replayConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.FalseSharing()) == 0 {
		t.Fatal("replay missed recorded false sharing")
	}
	if res.Threads[0] != "a" || res.Threads[1] != "b" {
		t.Errorf("threads = %v", res.Threads)
	}
	if res.Events == 0 {
		t.Error("no events replayed")
	}
	// The replayed finding resolves to the recorded allocation.
	f := res.Report.FalseSharing()[0]
	if _, ok := f.PrimaryObject(); !ok {
		t.Error("replayed finding lost object attribution")
	}
}

func TestReplayDeterministic(t *testing.T) {
	buf := record(t)
	a, err := Replay(bytes.NewReader(buf.Bytes()), replayConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(bytes.NewReader(buf.Bytes()), replayConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Report.Findings) != len(b.Report.Findings) {
		t.Fatal("replays disagree on finding count")
	}
	for i := range a.Report.Findings {
		fa, fb := a.Report.Findings[i], b.Report.Findings[i]
		if fa.Invalidations != fb.Invalidations || fa.Span != fb.Span {
			t.Errorf("finding %d differs: %d/%v vs %d/%v",
				i, fa.Invalidations, fa.Span, fb.Invalidations, fb.Span)
		}
	}
}

func TestReplayWithDifferentConfig(t *testing.T) {
	buf := record(t)
	// Impossibly high report threshold: same trace, no findings.
	cfg := replayConfig()
	cfg.ReportThreshold = 1 << 40
	res, err := Replay(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Findings) != 0 {
		t.Error("threshold ignored on replay")
	}
}

func TestReplayRejectsCorruptAlloc(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	w.WriteEvent(Event{Op: OpAlloc, TID: 0, Addr: 0x10, Size: 64}) // outside heap
	w.Flush()
	if _, err := Replay(bytes.NewReader(buf.Bytes()), replayConfig()); err == nil {
		t.Error("out-of-heap alloc replayed without error")
	}
}

func TestTeeFansOut(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	h, _ := mem.NewHeap(mem.Config{Size: 1 << 20})
	rt, _ := core.NewRuntime(h, replayConfig())
	tee := Tee{rt, w}
	tee.HandleAccess(0, h.Base(), 8, true)
	w.Flush()
	if rt.Stats().Accesses != 1 {
		t.Error("runtime missed teed access")
	}
	r, _ := NewReader(&buf)
	if e, err := r.Next(); err != nil || e.Op != OpWrite {
		t.Errorf("trace missed teed access: %+v, %v", e, err)
	}
}

func BenchmarkWriteEvent(b *testing.B) {
	w, _ := NewWriter(io.Discard, testHeader())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.HandleAccess(i&3, 0x400000000+uint64(i&1023)*8, 8, i&1 == 0)
	}
}

// TestRecordReplayParity is the fidelity contract: one live run teed into a
// trace must replay to the same core.Stats and the same findings the live
// runtime produced. Frees are part of the contract — the runtime recycles
// line metadata on free, so a trace missing OpFree events would diverge.
func TestRecordReplayParity(t *testing.T) {
	const base, size = uint64(0x400000000), uint64(4 << 20)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{HeapBase: base, HeapSize: size, LineSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	h, err := mem.NewHeap(mem.Config{Base: base, Size: size})
	if err != nil {
		t.Fatal(err)
	}
	Mirror(h, w)
	cfg := replayConfig()
	rt, err := core.NewRuntime(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := instr.New(h, Tee{rt, w}, instr.Policy{})
	t1, t2 := in.NewThread("a"), in.NewThread("b")

	// Falsely-shared object: two threads hammer adjacent words.
	shared, err := h.Alloc(t1.ID(), 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Tracked-then-freed object: crosses the tracking threshold, then is
	// freed so its line metadata is recycled — the OpFree-sensitive path.
	scratch, err := h.Alloc(t2.ID(), 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		t1.Store64(shared, uint64(i))
		t2.Store64(shared+8, uint64(i))
		t1.Store64(scratch, uint64(i))
	}
	if err := h.Free(scratch); err != nil {
		t.Fatal(err)
	}
	// Post-free traffic on the shared line keeps accumulating.
	for i := 0; i < 100; i++ {
		t1.Store64(shared, uint64(i))
		t2.Store64(shared+8, uint64(i))
	}
	liveStats := rt.Stats()
	liveReport := rt.Report()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	res, err := Replay(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != liveStats {
		t.Errorf("stats diverge:\n live:   %+v\n replay: %+v", liveStats, res.Stats)
	}
	if got, want := len(res.Report.Findings), len(liveReport.Findings); got != want {
		t.Fatalf("finding count: replay %d, live %d", got, want)
	}
	for i := range liveReport.Findings {
		lf, rf := liveReport.Findings[i], res.Report.Findings[i]
		if lf.Source != rf.Source || lf.Sharing != rf.Sharing || lf.Span != rf.Span ||
			lf.Accesses != rf.Accesses || lf.Reads != rf.Reads || lf.Writes != rf.Writes ||
			lf.Invalidations != rf.Invalidations || lf.Estimate != rf.Estimate {
			t.Errorf("finding %d diverges:\n live:   %+v\n replay: %+v", i, lf, rf)
		}
		if !reflect.DeepEqual(lf.Words, rf.Words) {
			t.Errorf("finding %d words diverge", i)
		}
		if len(lf.Objects) != len(rf.Objects) {
			t.Errorf("finding %d object count: live %d, replay %d", i, len(lf.Objects), len(rf.Objects))
			continue
		}
		for j := range lf.Objects {
			lo, ro := lf.Objects[j], rf.Objects[j]
			// Callsites are not recorded in traces; everything else must match.
			lo.Callsite, ro.Callsite = callsite.Stack{}, callsite.Stack{}
			if !reflect.DeepEqual(lo, ro) {
				t.Errorf("finding %d object %d diverges:\n live:   %+v\n replay: %+v", i, j, lo, ro)
			}
		}
	}
}

// TestReplayCountsEveryAccess: a replay delivers every access on the
// driving goroutine, so its Stats are exact: Accesses equals the trace's
// read and write events and Writes its write events. The hand-written
// trace mixes tids the runtime gives count slots (0–2) with tids past the
// slot table's cap, which it counts on its shared totals, and leaves every
// tid a count that is not a multiple of the publish batch.
func TestReplayCountsEveryAccess(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	base := testHeader().HeapBase
	if err := w.WriteEvent(Event{Op: OpAlloc, TID: 0, Addr: base, Size: 4096}); err != nil {
		t.Fatal(err)
	}
	tids := []int32{0, 1, 2, 1 << 20, math.MaxInt32}
	for i := 0; i < 3000; i++ {
		tid := tids[i%len(tids)]
		op := OpRead
		if i%3 == 0 {
			op = OpWrite
		}
		if err := w.WriteEvent(Event{Op: op, TID: tid, Addr: base + uint64(i%512)*8, Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, trace := range map[string][]byte{"written": buf.Bytes(), "recorded": record(t).Bytes()} {
		var reads, writes uint64
		r, err := NewReader(bytes.NewReader(trace))
		if err != nil {
			t.Fatal(err)
		}
		for {
			e, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			switch e.Op {
			case OpRead:
				reads++
			case OpWrite:
				writes++
			}
		}
		res, err := Replay(bytes.NewReader(trace), replayConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Accesses != reads+writes || res.Stats.Writes != writes {
			t.Errorf("%s: replay stats accesses=%d writes=%d, want %d and %d (the trace's access events)",
				name, res.Stats.Accesses, res.Stats.Writes, reads+writes, writes)
		}
	}
}
