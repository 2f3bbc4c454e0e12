// Package diag is the detector's live diagnostics server: an embedded,
// opt-in HTTP endpoint that exposes the runtime's state while detection is
// running. It serves five surfaces:
//
//   - /metrics — the obs registry rendered in Prometheus text format, live.
//   - /hotlines?n=K — JSON snapshots of the K hottest tracked cache lines
//     (invalidation counts, per-word thread-ownership heatmaps,
//     sampling-window phase, attached virtual lines).
//   - /findings — a provisional (side-effect-free) report of what the final
//     Report would currently contain.
//   - /timeline?line=K — the flight recorders rendered as Chrome
//     trace-event JSON (load in ui.perfetto.dev): per-thread access tracks,
//     invalidation marks, the whole-run workload bar. Omit line for the
//     hottest lines (?n= bounds how many).
//   - /debug/pprof/* — the Go profiler; harness workers carry the
//     predator_phase=workload and predator_worker pprof labels for the
//     whole run, and prediction and report samples are told apart by their
//     frames (core.Runtime.runPrediction and Report).
//   - /healthz — build identity, uptime, and endpoint quarantine state.
//
// The server holds its Source (the runtime) behind an atomic swap so tools
// that run many successive runtimes (predbench) can re-point a live server
// between runs. Every handler runs behind its own resilience.Guard (see
// guard.go): a panicking endpoint returns 500 and, past the panic budget, is
// quarantined to 503 — diagnostics can degrade, detection never stops.
package diag

import (
	"bytes"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"predator/internal/core"
	"predator/internal/obs"
	"predator/internal/obs/spans"
	"predator/internal/obs/traceout"
	"predator/internal/report"
)

// Source is the runtime surface the server scrapes. *core.Runtime
// implements it; tests substitute fakes.
type Source interface {
	// HotLines returns snapshots of the n hottest tracked lines (n <= 0
	// means all), hottest first.
	HotLines(n int) []core.LineSnapshot
	// Provisional builds a side-effect-free report of current findings.
	Provisional() *report.Report
	// LiveStats snapshots runtime counters beside the running workers:
	// access and write totals lag by less than obs.SyncBatch per thread.
	LiveStats() core.Stats
}

// TimelineSource is the optional Source extension behind /timeline.
// *core.Runtime implements it; sources that don't (test fakes, remote
// mirrors) make the endpoint answer 503 rather than breaking the interface.
type TimelineSource interface {
	// FlightDump snapshots the flight recorders: line >= 0 restricts to one
	// physical line, otherwise the n hottest lines (n <= 0 means all). Nil
	// when flight recording is disabled.
	FlightDump(n int, line int64) *core.FlightDump
}

// DefaultHotLines is how many lines /hotlines returns when ?n= is absent.
const DefaultHotLines = 10

// sourceBox wraps a Source so atomic.Value always stores one concrete type.
type sourceBox struct{ src Source }

// Server is the diagnostics HTTP server. Construct with New, attach a
// runtime with SetSource (before or after Start), and serve with Start.
type Server struct {
	*guardedMux // routes, Handler, Start and Shutdown

	reg    *obs.Registry
	build  obs.BuildInfo
	tool   string
	source atomic.Value // sourceBox
	// predlint padcheck: the pad keeps source and tracer on separate cache lines.
	_       [48]byte
	tracer  atomic.Pointer[spans.Tracer]
	started time.Time
}

// New builds a server over a metrics registry (may be nil: /metrics then
// renders an empty registry) identified by tool and build.
func New(reg *obs.Registry, tool string, build obs.BuildInfo) *Server {
	s := &Server{
		guardedMux: newGuardedMux(),
		reg:        reg,
		build:      build,
		tool:       tool,
		started:    time.Now(),
	}
	s.handle("/healthz", s.handleHealthz)
	s.handle("/metrics", s.handleMetrics)
	s.handle("/hotlines", s.handleHotLines)
	s.handle("/findings", s.handleFindings)
	s.handle("/timeline", s.handleTimeline)
	s.handle("/spans", s.handleSpans)
	s.handleRaw("/debug/pprof/", "/debug/pprof", httppprof.Index)
	s.handleRaw("/debug/pprof/cmdline", "/debug/pprof/cmdline", httppprof.Cmdline)
	s.handleRaw("/debug/pprof/profile", "/debug/pprof/profile", httppprof.Profile)
	s.handleRaw("/debug/pprof/symbol", "/debug/pprof/symbol", httppprof.Symbol)
	s.handleRaw("/debug/pprof/trace", "/debug/pprof/trace", httppprof.Trace)
	return s
}

// SetSource atomically attaches (or replaces) the runtime the server
// scrapes. Safe to call while the server is serving; nil detaches.
func (s *Server) SetSource(src Source) {
	s.source.Store(sourceBox{src: src})
}

// SetRuntime is SetSource for the concrete runtime type: its signature
// matches the OnRuntime hooks on harness.Options, trace.ReplayOptions, and
// eval.Config, so CLIs can pass the method value directly.
func (s *Server) SetRuntime(rt *core.Runtime) {
	if rt == nil {
		s.SetSource(nil)
		return
	}
	s.SetSource(rt)
}

// SetSpans attaches the pipeline span tracer behind /spans. Safe to call
// while serving; nil detaches (the endpoint answers 503).
func (s *Server) SetSpans(t *spans.Tracer) {
	s.tracer.Store(t)
}

// Src returns the currently attached source, or nil.
func (s *Server) Src() Source {
	if b, ok := s.source.Load().(sourceBox); ok {
		return b.src
	}
	return nil
}

// Health is the /healthz response schema.
type Health struct {
	Status        string   `json:"status"`
	Tool          string   `json:"tool"`
	Version       string   `json:"version"`
	Revision      string   `json:"revision,omitempty"`
	GoVersion     string   `json:"go_version"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	SourceActive  bool     `json:"source_active"`
	Quarantined   []string `json:"quarantined,omitempty"`
}

func (s *Server) handleHealthz(_ *http.Request, buf *bytes.Buffer) (string, error) {
	h := Health{
		Status:        "ok",
		Tool:          s.tool,
		Version:       s.build.Version,
		Revision:      s.build.ShortRevision(),
		GoVersion:     s.build.GoVersion,
		UptimeSeconds: time.Since(s.started).Seconds(),
		SourceActive:  s.Src() != nil,
		Quarantined:   s.Quarantined(),
	}
	return writeJSON(buf, h)
}

func (s *Server) handleMetrics(_ *http.Request, buf *bytes.Buffer) (string, error) {
	if err := s.reg.WritePrometheus(buf); err != nil {
		return "", err
	}
	return "text/plain; version=0.0.4; charset=utf-8", nil
}

// StatsJSON is core.Stats with stable snake_case JSON names.
type StatsJSON struct {
	Accesses             uint64 `json:"accesses"`
	Writes               uint64 `json:"writes"`
	TrackedLines         int    `json:"tracked_lines"`
	VirtualLines         int    `json:"virtual_lines"`
	Invalidations        uint64 `json:"invalidations"`
	VirtualInvalidations uint64 `json:"virtual_invalidations"`
	SampledAccesses      uint64 `json:"sampled_accesses"`
	Elided               uint64 `json:"elided,omitempty"` // accesses skipped by the static elision fast path
}

func statsJSON(st core.Stats) StatsJSON {
	return StatsJSON{
		Accesses:             st.Accesses,
		Writes:               st.Writes,
		TrackedLines:         st.TrackedLines,
		VirtualLines:         st.VirtualLines,
		Invalidations:        st.Invalidations,
		VirtualInvalidations: st.VirtualInvalidations,
		SampledAccesses:      st.SampledAccesses,
	}
}

// HotLinesResponse is the /hotlines response schema.
type HotLinesResponse struct {
	Tool      string              `json:"tool"`
	UnixMilli int64               `json:"unix_ms"`
	Requested int                 `json:"requested"`
	Count     int                 `json:"count"`
	Stats     StatsJSON           `json:"stats"`
	Lines     []core.LineSnapshot `json:"lines"`
}

func (s *Server) handleHotLines(r *http.Request, buf *bytes.Buffer) (string, error) {
	src := s.Src()
	if src == nil {
		return "", httpStatus(http.StatusServiceUnavailable, "no runtime attached")
	}
	n := DefaultHotLines
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			return "", httpStatus(http.StatusBadRequest, "invalid n: "+raw)
		}
		n = v
	}
	lines := src.HotLines(n)
	if lines == nil {
		lines = []core.LineSnapshot{}
	}
	resp := HotLinesResponse{
		Tool:      s.tool,
		UnixMilli: time.Now().UnixMilli(),
		Requested: n,
		Count:     len(lines),
		Stats:     statsJSON(src.LiveStats()),
		Lines:     lines,
	}
	// The elided counter lives in the instrumentation front-end, not
	// core.Stats; read it from the metrics registry by name.
	resp.Stats.Elided = s.elidedCount()
	return writeJSON(buf, resp)
}

// elidedCount reads the static-elision counter from the registry (zero when
// no elision manifest is installed or no observer wiring exists).
func (s *Server) elidedCount() uint64 {
	if s.reg == nil {
		return 0
	}
	return uint64(s.reg.Snapshot()["predator_events_elided_total"])
}

// FindingsResponse is the /findings response schema: finding tallies plus
// the provisional report in the same JSON shape predator -json emits.
type FindingsResponse struct {
	Tool      string            `json:"tool"`
	UnixMilli int64             `json:"unix_ms"`
	Counts    report.Counts     `json:"counts"`
	Report    report.JSONReport `json:"report"`
}

func (s *Server) handleFindings(_ *http.Request, buf *bytes.Buffer) (string, error) {
	src := s.Src()
	if src == nil {
		return "", httpStatus(http.StatusServiceUnavailable, "no runtime attached")
	}
	rep := src.Provisional()
	resp := FindingsResponse{
		Tool:      s.tool,
		UnixMilli: time.Now().UnixMilli(),
		Counts:    rep.Counts(),
		Report:    rep.ToJSON(),
	}
	return writeJSON(buf, resp)
}

func (s *Server) handleTimeline(r *http.Request, buf *bytes.Buffer) (string, error) {
	src := s.Src()
	if src == nil {
		return "", httpStatus(http.StatusServiceUnavailable, "no runtime attached")
	}
	ts, ok := src.(TimelineSource)
	if !ok {
		return "", httpStatus(http.StatusServiceUnavailable, "attached source does not support timelines")
	}
	line := int64(-1)
	if raw := r.URL.Query().Get("line"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			return "", httpStatus(http.StatusBadRequest, "invalid line: "+raw)
		}
		line = v
	}
	n := DefaultHotLines
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			return "", httpStatus(http.StatusBadRequest, "invalid n: "+raw)
		}
		n = v
	}
	d := ts.FlightDump(n, line)
	if d == nil {
		return "", httpStatus(http.StatusServiceUnavailable, "flight recording disabled")
	}
	if err := traceout.WriteTimeline(buf, d, nil); err != nil {
		return "", err
	}
	return "application/json; charset=utf-8", nil
}

// handleSpans serves the tracer's finished pipeline spans as OTLP/JSON —
// the same document -spans-out writes, but live: scrape mid-run to see which
// phases have completed so far.
func (s *Server) handleSpans(_ *http.Request, buf *bytes.Buffer) (string, error) {
	t := s.tracer.Load()
	if t == nil {
		return "", httpStatus(http.StatusServiceUnavailable, "span tracing not enabled")
	}
	if err := spans.WriteOTLP(buf, s.tool, t.Snapshot()); err != nil {
		return "", err
	}
	return "application/json; charset=utf-8", nil
}
