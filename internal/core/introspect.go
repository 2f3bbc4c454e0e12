package core

import (
	"sort"

	"predator/internal/detect"
	"predator/internal/predict"
)

// This file is the runtime's hot-line introspection API: point-in-time,
// non-mutating views of the §2.4 tracking state, shaped for the live
// diagnostics server (internal/obs/diag). JSON field names are part of the
// /hotlines response schema. Everything here reads atomics or takes the
// same locks the hot path takes, so scraping a live detection run is safe
// under the race detector.

// WordHeat is one word's cell in a line's thread-ownership heatmap.
type WordHeat struct {
	Index   int    `json:"index"`             // word index within the line
	Addr    uint64 `json:"addr"`              // word address
	Reads   uint64 `json:"reads"`             // recorded reads
	Writes  uint64 `json:"writes"`            // recorded writes
	Owner   int    `json:"owner"`             // thread id, or detect.OwnerNone/-Shared
	Foreign uint64 `json:"foreign,omitempty"` // accesses by non-owner threads
}

// LineSnapshot is a point-in-time view of one tracked cache line: the
// paper's §2.4.1 detailed tracking state, §2.4.3 sampling-window position,
// the governor's degradation status, and any §3 virtual lines attached to
// the line's span.
type LineSnapshot struct {
	Line          uint64 `json:"line"` // dense line index within the heap
	Addr          uint64 `json:"addr"` // line base address
	Accesses      uint64 `json:"accesses"`
	Reads         uint64 `json:"reads"`
	Writes        uint64 `json:"writes"`
	Recorded      uint64 `json:"recorded"` // post-sampling recorded accesses
	Invalidations uint64 `json:"invalidations"`
	ReportWorthy  bool   `json:"report_worthy,omitempty"` // invalidations >= ReportThreshold
	Degraded      bool   `json:"degraded,omitempty"`      // invalidation-counting-only mode

	// Sampling-window phase (§2.4.3). WindowPos is the 0-based position the
	// line's next access takes within its window; Recording says whether
	// that access falls inside the recorded burst. WindowLen/WindowBurst are
	// 0 when sampling is disabled (everything is recorded).
	WindowPos   uint64 `json:"window_pos"`
	WindowLen   uint64 `json:"window_len,omitempty"`
	WindowBurst uint64 `json:"window_burst,omitempty"`
	Recording   bool   `json:"recording"`

	// Words is the per-word thread-ownership heatmap (frozen pre-degradation
	// detail on a degraded line; empty if the line degraded before any
	// detail accumulated).
	Words []WordHeat `json:"words,omitempty"`

	// Virtual lists the §3.4 virtual lines under verification whose spans
	// overlap this line.
	Virtual []predict.VSnapshot `json:"virtual,omitempty"`
}

// snapshotLine builds one line's snapshot.
func (rt *Runtime) snapshotLine(line uint64, t *detect.Track) LineSnapshot {
	pos, recording := t.WindowPhase()
	s := LineSnapshot{
		Line:          line,
		Addr:          rt.mapping.LineBase(line),
		Accesses:      t.Accesses(),
		Reads:         t.Reads(),
		Writes:        t.Writes(),
		Recorded:      t.Recorded(),
		Invalidations: t.Invalidations(),
		ReportWorthy:  t.Invalidations() >= rt.cfg.ReportThreshold,
		Degraded:      t.Degraded(),
		WindowPos:     pos,
		WindowLen:     t.SamplerConfig().Window,
		WindowBurst:   t.SamplerConfig().Burst,
		Recording:     recording,
	}
	for _, w := range t.Words() {
		s.Words = append(s.Words, WordHeat{
			Index:   w.Index,
			Addr:    t.WordAddr(w.Index),
			Reads:   w.Reads,
			Writes:  w.Writes,
			Owner:   w.EffectiveOwner(),
			Foreign: w.Foreign,
		})
	}
	s.Virtual = rt.vreg.SnapshotsOverlapping(s.Addr, s.Addr+rt.geom.Size())
	return s
}

// HotLines returns snapshots of the n tracked cache lines with the most
// invalidations (ties broken by accesses, then by line index), hottest
// first. n <= 0 returns every tracked line. The traversal is lock-free over
// the installed shadow chunks and per-line state is read atomically, so
// HotLines is safe to call concurrently with a live detection run.
func (rt *Runtime) HotLines(n int) []LineSnapshot {
	type cand struct {
		line uint64
		t    *detect.Track
		inv  uint64
		acc  uint64
	}
	var cands []cand
	rt.sh.ForEachTracked(func(line uint64, t *detect.Track) {
		cands = append(cands, cand{line: line, t: t, inv: t.Invalidations(), acc: t.Accesses()})
	})
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].inv != cands[j].inv {
			return cands[i].inv > cands[j].inv
		}
		if cands[i].acc != cands[j].acc {
			return cands[i].acc > cands[j].acc
		}
		return cands[i].line < cands[j].line
	})
	if n > 0 && len(cands) > n {
		cands = cands[:n]
	}
	out := make([]LineSnapshot, len(cands))
	for i, c := range cands {
		out[i] = rt.snapshotLine(c.line, c.t)
	}
	return out
}
