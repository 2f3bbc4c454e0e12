// Package fleet is the server side of PREDATOR's fleet mode: many detector
// agents (predator, predbench, predreplay) stream findings, metric
// snapshots, and span traces to one central predfleet service, which
// persists them in an append-only store, indexes them per tenant and
// project, and answers fleet-wide queries — run history, regression diffs
// between runs, and an aggregated hottest-lines view.
//
// This file defines the wire schema shared by the server and the agent-side
// exporter (internal/obs/fleetclient): the ingestion payloads agents POST
// and the on-disk envelope the store appends. Everything is plain JSON so
// segments stay greppable and the salvage reader can resync on line
// boundaries after a crash or disk fault.
package fleet

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strings"

	"predator/internal/eval"
	"predator/internal/obs/spans"
	"predator/internal/report"
)

// Record types carried in store envelopes and ingestion URLs.
const (
	TypeFindings = "findings"
	TypeMetrics  = "metrics"
	TypeSpans    = "spans"
)

// EnvelopeVersion is the current on-disk envelope schema version.
const EnvelopeVersion = 1

// Envelope frames one store record: who sent what, for which project and
// run, plus a CRC over the payload bytes so recovery can reject records a
// disk fault silently mangled. One envelope is one JSONL line.
type Envelope struct {
	V       int    `json:"v"`
	Type    string `json:"type"`
	Tenant  string `json:"tenant"`
	Project string `json:"project"`
	Agent   string `json:"agent,omitempty"`
	Run     string `json:"run,omitempty"`
	Seq     uint64 `json:"seq"`
	UnixMs  int64  `json:"unix_ms"`
	// CRC is the IEEE CRC-32 of the raw Payload bytes, rendered as %08x.
	CRC     string          `json:"crc"`
	Payload json.RawMessage `json:"payload"`
}

// PayloadCRC computes the envelope checksum over raw payload bytes.
func PayloadCRC(payload []byte) string {
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload))
}

// RunMeta identifies one detection run as reported by the agent.
type RunMeta struct {
	ID         string `json:"id"`
	Project    string `json:"project"`
	Agent      string `json:"agent,omitempty"`
	Tool       string `json:"tool,omitempty"`    // predator | predbench | predreplay
	Version    string `json:"version,omitempty"` // agent build version
	Workload   string `json:"workload,omitempty"`
	Mode       string `json:"mode,omitempty"`
	Threads    int    `json:"threads,omitempty"`
	UnixMs     int64  `json:"unix_ms,omitempty"` // agent-side completion time
	DurationNs int64  `json:"duration_ns,omitempty"`
}

// FindingsPayload is the body of POST /api/v1/ingest/findings: one run's
// reports, keyed by workload (a single-workload agent uses one key), plus
// the machine-readable benchmark document when the agent produced one —
// that is what powers slowdown-ratio deltas in /api/v1/diff.
type FindingsPayload struct {
	Run     RunMeta                      `json:"run"`
	Reports map[string]report.JSONReport `json:"reports"`
	Bench   *eval.BenchDoc               `json:"bench,omitempty"`
}

// MetricsPayload is the body of POST /api/v1/ingest/metrics: a point-in-time
// snapshot of one agent's registry and hottest lines. The server keeps the
// latest payload per (project, agent) and aggregates them in /api/v1/hotlines.
type MetricsPayload struct {
	Project  string             `json:"project"`
	Agent    string             `json:"agent"`
	Tool     string             `json:"tool,omitempty"`
	Run      string             `json:"run,omitempty"`
	UnixMs   int64              `json:"unix_ms"`
	Snapshot map[string]float64 `json:"snapshot,omitempty"` // obs.Registry.Snapshot()
	Stats    StatsSnapshot      `json:"stats"`
	HotLines []HotLine          `json:"hotlines,omitempty"`
}

// StatsSnapshot mirrors the runtime counters agents report (the same
// snake_case shape diag.StatsJSON serves), kept separate so the wire format
// does not chase internal struct changes.
type StatsSnapshot struct {
	Accesses      uint64 `json:"accesses"`
	Writes        uint64 `json:"writes"`
	TrackedLines  int    `json:"tracked_lines"`
	VirtualLines  int    `json:"virtual_lines"`
	Invalidations uint64 `json:"invalidations"`
	DegradedLines int    `json:"degraded_lines,omitempty"`
	Degraded      bool   `json:"degraded,omitempty"`
	// Elided counts accesses the static elision fast path dropped (zero
	// without an -elide manifest), so fleet dashboards can attribute how
	// much instrumentation the proofs saved.
	Elided uint64 `json:"elided,omitempty"`
}

// HotLine is one tracked line in a metrics payload: the subset of
// core.LineSnapshot the fleet view renders, plus origin tags filled in by
// the server when aggregating across agents.
type HotLine struct {
	Line          uint64 `json:"line"`
	Addr          uint64 `json:"addr"`
	Accesses      uint64 `json:"accesses"`
	Reads         uint64 `json:"reads"`
	Writes        uint64 `json:"writes"`
	Invalidations uint64 `json:"invalidations"`
	ReportWorthy  bool   `json:"report_worthy,omitempty"`
	Degraded      bool   `json:"degraded,omitempty"`
	// Owners is the one-glyph-per-word ownership heatmap as rendered by
	// topview.Heatmap — agents compress it so the wire stays small.
	Owners string `json:"owners,omitempty"`

	// Origin tags, set by the server on aggregated responses. Trace is the
	// span trace ID of the originating agent's current run, when that run
	// shipped a span snapshot — predtop's jump-to-waterfall handle.
	Project string `json:"project,omitempty"`
	Agent   string `json:"agent,omitempty"`
	Trace   string `json:"trace,omitempty"`
}

// SpansPayload is the body of POST /api/v1/ingest/spans: one run's finished
// span snapshot, shipped once at run end. The server keeps the latest
// payload per (project, run) and serves it from /api/v1/traces and the
// dashboard waterfall; a finding's provenance span_id indexes into Spans.
type SpansPayload struct {
	Project string       `json:"project"`
	Agent   string       `json:"agent,omitempty"`
	Tool    string       `json:"tool,omitempty"`
	Run     string       `json:"run"`
	UnixMs  int64        `json:"unix_ms"`
	TraceID string       `json:"trace_id"`
	Spans   []spans.Data `json:"spans"`
}

// Validate rejects payloads that cannot be indexed or would poison the
// waterfall view: a missing run, a malformed trace ID, or spans from a
// different trace.
func (p *SpansPayload) Validate() error {
	if p.Run == "" {
		return fmt.Errorf("fleet: spans payload missing run")
	}
	if _, err := spans.ParseTraceID(p.TraceID); err != nil {
		return err
	}
	for i := range p.Spans {
		if p.Spans[i].TraceID != p.TraceID {
			return fmt.Errorf("fleet: span %d belongs to trace %s, payload says %s",
				i, p.Spans[i].TraceID, p.TraceID)
		}
		if _, err := spans.ParseSpanID(p.Spans[i].SpanID); err != nil {
			return err
		}
	}
	return nil
}

// CountsOf tallies a machine-readable report the way report.Report.Counts
// does, from the wire-side JSON mirror (the server never holds the rich
// in-memory Report).
func CountsOf(rep *report.JSONReport) report.Counts {
	c := report.Counts{Findings: len(rep.Findings)}
	for _, f := range rep.Findings {
		if strings.Contains(f.Sharing, "false") || strings.Contains(f.Sharing, "mixed") {
			c.FalseSharing++
		}
		if f.Source == "observed" {
			c.Observed++
		} else {
			c.Predicted++
		}
	}
	return c
}

// SumCounts totals counts across a run's per-workload reports.
func SumCounts(reports map[string]report.JSONReport) report.Counts {
	var c report.Counts
	for k := range reports {
		rep := reports[k]
		rc := CountsOf(&rep)
		c.Findings += rc.Findings
		c.FalseSharing += rc.FalseSharing
		c.Observed += rc.Observed
		c.Predicted += rc.Predicted
	}
	return c
}

// FindingKey is the identity under which two runs' findings are matched by
// the regression diff: the workload, the finding's primary object (label
// preferred, span as fallback), and its source. Two runs reporting the same
// object from the same source are "the same finding" even if counts moved.
func FindingKey(workload string, f *report.JSONFinding) string {
	obj := fmt.Sprintf("span:%#x-%#x", f.SpanStart, f.SpanEnd)
	if f.Object != nil && f.Object.Label != "" {
		obj = "obj:" + f.Object.Label
		if f.Object.Callsite != "" {
			obj += "@" + f.Object.Callsite
		}
	}
	return workload + "|" + obj + "|" + f.Source
}
