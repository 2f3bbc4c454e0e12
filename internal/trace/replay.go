package trace

import (
	"fmt"
	"io"

	"predator/internal/core"
	"predator/internal/elide"
	"predator/internal/mem"
	"predator/internal/obs/spans"
	"predator/internal/report"
)

// ReplayResult summarizes a replay.
type ReplayResult struct {
	Events  uint64
	Threads map[int]string
	Report  *report.Report
	Stats   core.Stats
	// Salvage accounts what a salvage-mode replay skipped or repaired;
	// nil when the replay ran strict.
	Salvage *SalvageStats
	// SemanticErrors counts events that decoded cleanly but were rejected
	// by the rebuilt heap (overlapping allocations, unknown frees) and
	// tolerated in salvage mode. Always 0 on a strict replay, which aborts
	// on the first such error instead.
	SemanticErrors uint64
	// Elided counts access events dropped by the static elision fast path
	// (zero without ReplayOptions.Elide).
	Elided uint64
}

// ReplayOptions selects replay behavior beyond the runtime configuration.
type ReplayOptions struct {
	// Salvage replays through a salvage-mode reader: malformed or truncated
	// records are skipped (accounted in ReplayResult.Salvage) and semantic
	// heap errors are counted instead of aborting, so a damaged trace still
	// yields a report.
	Salvage bool
	// OnRuntime, when non-nil, receives the replay runtime right after
	// construction, before any event streams through it. The live
	// diagnostics server uses it to attach the runtime as its scrape
	// source.
	OnRuntime func(*core.Runtime)
	// Elide, when non-nil, is a predlint elision manifest. Replay bypasses
	// the instrumentation front-end, so the binder filters access events
	// here, before they reach the runtime — with the same margin rule the
	// harness applies, so elision never changes the replay's counts.
	Elide *elide.Manifest
	// Span, when non-nil, is the parent span the replay's pipeline spans
	// (replay.decode, report.collect) nest under. The tracer rides on
	// cfg.Observer (obs.SetSpans); without one every span call no-ops.
	Span *spans.Span
}

// Replay streams a trace through a fresh PREDATOR runtime configured with
// cfg, rebuilding the recorded heap's object table, and returns the report.
// Replay is deterministic: the same trace and configuration always produce
// the same invalidation counts and findings.
func Replay(r io.Reader, cfg core.Config) (*ReplayResult, error) {
	return ReplayWithOptions(r, cfg, ReplayOptions{})
}

// ReplayWithOptions is Replay with explicit resilience options.
func ReplayWithOptions(r io.Reader, cfg core.Config, opts ReplayOptions) (*ReplayResult, error) {
	var tr *Reader
	var err error
	if opts.Salvage {
		tr, err = NewSalvageReader(r)
	} else {
		tr, err = NewReader(r)
	}
	if err != nil {
		return nil, err
	}
	hdr := tr.Header()
	h, err := mem.NewHeap(mem.Config{
		Base:     hdr.HeapBase,
		Size:     hdr.HeapSize,
		LineSize: int(hdr.LineSize),
	})
	if err != nil && opts.Salvage {
		// The header decoded but describes an unbuildable heap (e.g. a
		// bit-flipped size). Fall back to the default geometry; accesses
		// outside it are ignored by the runtime's range check.
		tr.stats.HeaderDamaged = true
		hdr = defaultHeader()
		h, err = mem.NewHeap(mem.Config{
			Base:     hdr.HeapBase,
			Size:     hdr.HeapSize,
			LineSize: int(hdr.LineSize),
		})
	}
	if err != nil {
		return nil, fmt.Errorf("trace: rebuilding heap: %w", err)
	}
	// Observe the rebuilt heap before streaming events, so a replayed run
	// produces the same allocation telemetry as the live run it recorded.
	h.Observe(cfg.Observer)
	tracer := cfg.Observer.Spans()
	var binder *elide.Binder
	if opts.Elide != nil {
		esp := tracer.Start("elide.bind", opts.Span)
		esp.SetAttr("entries", uint64(len(opts.Elide.Entries)))
		binder, err = elide.NewBinder(opts.Elide, h.Geometry())
		if err != nil {
			esp.End()
			return nil, fmt.Errorf("trace: elision manifest: %w", err)
		}
		// Attach before any OpAlloc/OpGlobal streams in: the heap hooks
		// bind manifest entries to objects as the replay rebuilds them.
		binder.Attach(h)
		esp.SetAttr("margin_lines", uint64(elide.MarginLines))
		esp.End()
	}
	rt, err := core.NewRuntime(h, cfg)
	if err != nil {
		return nil, err
	}
	if opts.OnRuntime != nil {
		opts.OnRuntime(rt)
	}
	// The decode span covers the event loop (salvage included): detector
	// spans minted while events stream (predict.search) nest under it.
	dsp := tracer.Start("replay.decode", opts.Span)
	if opts.Salvage {
		dsp.SetLabel("salvage", "on")
	}
	rt.SetSpan(dsp)
	defer dsp.End() // idempotent: the success path ends it before the report
	res := &ReplayResult{Threads: make(map[int]string)}
	e := &tr.ev // decoded in place by each advance
	for {
		if err := tr.advance(); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		res.Events++
		switch e.Op {
		case OpRead:
			if binder != nil && binder.Elidable(e.Addr, e.Size, false) {
				res.Elided++
				continue
			}
			rt.HandleAccess(int(e.TID), e.Addr, e.Size, false)
		case OpWrite:
			if binder != nil && binder.Elidable(e.Addr, e.Size, true) {
				res.Elided++
				continue
			}
			rt.HandleAccess(int(e.TID), e.Addr, e.Size, true)
		case OpAlloc:
			if err := h.ImportObject(mem.Object{Start: e.Addr, Size: e.Size, Thread: int(e.TID)}); err != nil {
				if opts.Salvage {
					res.SemanticErrors++
					continue
				}
				return nil, fmt.Errorf("trace: event %d (byte offset %d): %w", res.Events-1, tr.Offset(), err)
			}
		case OpFree:
			if err := h.Free(e.Addr); err != nil {
				if opts.Salvage {
					res.SemanticErrors++
					continue
				}
				return nil, fmt.Errorf("trace: event %d (byte offset %d): %w", res.Events-1, tr.Offset(), err)
			}
		case OpGlobal:
			if err := h.ImportObject(mem.Object{Start: e.Addr, Size: e.Size, Thread: -1, Label: e.Name, Global: true}); err != nil {
				if opts.Salvage {
					res.SemanticErrors++
					continue
				}
				return nil, fmt.Errorf("trace: event %d (byte offset %d): %w", res.Events-1, tr.Offset(), err)
			}
		case OpThread:
			res.Threads[int(e.TID)] = e.Name
		}
	}
	dsp.SetAttr("events", res.Events)
	dsp.SetAttr("elided", res.Elided)
	dsp.SetAttr("semantic_errors", res.SemanticErrors)
	dsp.End()
	rt.SetSpan(opts.Span)
	res.Report = rt.Report()
	res.Stats = rt.Stats()
	if opts.Salvage {
		stats := tr.Stats()
		res.Salvage = &stats
	}
	return res, nil
}

// Mirror subscribes a trace Writer to the heap's lifecycle hooks so every
// allocation, global registration, and free is recorded alongside the access
// stream. Frees matter for fidelity: the runtime recycles line metadata on
// free, so a trace without OpFree events replays to different stats than the
// live run that produced it. Install before the workload allocates; the
// heap's multi-subscriber hooks let a detection runtime coexist on the same
// heap.
func Mirror(h *mem.Heap, w *Writer) {
	h.AddAllocHook(func(o mem.Object) {
		op := OpAlloc
		name := ""
		if o.Global {
			op = OpGlobal
			name = o.Label
		}
		_ = w.WriteEvent(Event{Op: op, TID: int32(o.Thread), Addr: o.Start, Size: o.Size, Name: name})
	})
	h.AddFreeHook(func(start, size uint64) {
		_ = w.WriteEvent(Event{Op: OpFree, Addr: start})
	})
}

// RecordingHeap wraps a heap so that allocations, frees and globals are
// mirrored into a trace Writer. The instrumentation front-end records
// accesses by using the Writer (or a Tee) as its sink.
type RecordingHeap struct {
	*mem.Heap
	W *Writer
}

// Alloc allocates and records the allocation.
func (rh *RecordingHeap) Alloc(thread int, size uint64, skip int) (uint64, error) {
	addr, err := rh.Heap.Alloc(thread, size, skip+1)
	if err == nil {
		err = rh.W.WriteEvent(Event{Op: OpAlloc, TID: int32(thread), Addr: addr, Size: size})
	}
	return addr, err
}

// Free frees and records the deallocation.
func (rh *RecordingHeap) Free(addr uint64) error {
	if err := rh.Heap.Free(addr); err != nil {
		return err
	}
	return rh.W.WriteEvent(Event{Op: OpFree, Addr: addr})
}

// DefineGlobal registers a global and records it.
func (rh *RecordingHeap) DefineGlobal(name string, size uint64) (uint64, error) {
	addr, err := rh.Heap.DefineGlobal(name, size)
	if err == nil {
		err = rh.W.WriteEvent(Event{Op: OpGlobal, Addr: addr, Size: size, Name: name})
	}
	return addr, err
}

// Tee is an instr.Sink that forwards each access to several sinks — e.g. the
// live runtime and a trace Writer simultaneously.
type Tee []interface {
	HandleAccess(tid int, addr, size uint64, isWrite bool)
}

// HandleAccess forwards to every sink in order.
func (t Tee) HandleAccess(tid int, addr, size uint64, isWrite bool) {
	for _, s := range t {
		s.HandleAccess(tid, addr, size, isWrite)
	}
}
