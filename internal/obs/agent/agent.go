// Package agent is the export session the predator, predbench and predreplay
// CLIs share. It registers the exporter flags next to the diag and fleet
// flag groups, builds the observer (with its guarded JSON-lines event sink)
// and the tracer (with its cli.run root span), starts the diagnostics
// server, heartbeat, fleet client and interrupt flush, and at the end of the
// run writes every export file and ships the run to the fleet. An
// interrupt, an error exit and a clean finish all end in the same flush of
// the metrics and event files.
package agent

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"predator/internal/core"
	"predator/internal/fleet"
	"predator/internal/obs"
	"predator/internal/obs/diag"
	"predator/internal/obs/fleetclient"
	"predator/internal/obs/spans"
	"predator/internal/obs/traceout"
	"predator/internal/resilience"
)

// Flags is the exporter flag group: the four export files plus the -diag-*
// and -fleet-* groups.
type Flags struct {
	MetricsOut  *string
	EventsOut   *string
	TimelineOut *string
	SpansOut    *string
	Diag        *diag.Flags
	Fleet       *fleetclient.Flags
}

// RegisterFlags declares the exporter flags on fs (flag.CommandLine in the
// CLIs).
func RegisterFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		MetricsOut:  fs.String("metrics-out", "", "write runtime metrics (aggregated across every run) in Prometheus text format to this file"),
		EventsOut:   fs.String("events-out", "", "stream lifecycle trace events from every run as JSON lines to this file"),
		TimelineOut: fs.String("timeline-out", "", "write the last run's flight-recorder timeline as Perfetto/Chrome trace-event JSON to this file"),
		SpansOut:    fs.String("spans-out", "", "write the pipeline span trace as OTLP/JSON to this file"),
		Diag:        diag.RegisterFlags(fs),
		Fleet:       fleetclient.RegisterFlags(fs),
	}
}

// Config is what differs between the CLIs.
type Config struct {
	Tool          string            // binary name: stderr prefix, build info, OTLP service, fleet tool
	Labels        map[string]string // cli.run root-span labels besides "tool"
	Deterministic bool              // deterministic trace and span IDs
	Heartbeat     time.Duration     // heartbeat interval, 0 = off
}

// Session is one run's export path. The CLI hands Observer, Span and
// OnRuntime to the harness, eval or replay options; each stays nil when no
// export needs it.
type Session struct {
	Observer *obs.Observer
	Span     *spans.Span
	// OnRuntime is the OnRuntime hook of harness.Options, eval.Config and
	// trace.ReplayOptions. Set only when -timeline-out, -diag-addr or the
	// fleet reads the runtime: a kept runtime stays reachable into the next
	// run, whose memory measurement would then start high.
	OnRuntime func(*core.Runtime)

	f       *Flags
	tool    string
	start   time.Time
	tracer  *spans.Tracer
	events  *obs.JSONLines
	evFile  *os.File
	diagSrv *diag.Server
	hb      *obs.Heartbeat
	stopInt func()
	fc      *fleetclient.Client
	runID   string
	stopRep func()
	rt      atomic.Pointer[core.Runtime]
	flushed sync.Once
}

// Start builds the session the parsed flags ask for.
func (f *Flags) Start(cfg Config) (*Session, error) {
	s := &Session{f: f, tool: cfg.Tool, start: time.Now()}
	if *f.MetricsOut != "" || *f.EventsOut != "" || *f.SpansOut != "" ||
		f.Diag.Enabled() || f.Fleet.Enabled() {
		var sink obs.Sink
		if *f.EventsOut != "" {
			file, err := os.Create(*f.EventsOut)
			if err != nil {
				return nil, err
			}
			s.evFile, s.events = file, obs.NewJSONLines(file)
			// Quarantine the sink rather than let an export failure kill
			// the run (see internal/resilience).
			sink = resilience.GuardSink("events-jsonl", s.events, 0, nil)
		}
		s.Observer = obs.New(obs.NewRegistry(), sink)
	}

	// Span tracing is on whenever the spans have somewhere to go (a
	// -spans-out file, the diag /spans endpoint, or the fleet). The tracer
	// rides on the observer; the root span parents every phase of the run.
	if *f.SpansOut != "" || f.Diag.Enabled() || f.Fleet.Enabled() {
		s.tracer = spans.New(spans.Config{Deterministic: cfg.Deterministic})
		s.Observer.SetSpans(s.tracer)
		s.Span = s.tracer.Start("cli.run", nil)
		s.Span.SetLabel("tool", cfg.Tool)
		for k, v := range cfg.Labels {
			s.Span.SetLabel(k, v)
		}
	}

	// Live diagnostics: self-profiling on, build info exported; setRuntime
	// attaches each runtime as the scrape source.
	if f.Diag.Enabled() {
		s.Observer.EnableSelfProfile()
		build := obs.RegisterBuildInfo(s.Observer.Metrics(), cfg.Tool)
		s.diagSrv = diag.New(s.Observer.Metrics(), cfg.Tool, build)
		s.diagSrv.SetSpans(s.tracer)
		bound, err := s.diagSrv.Start(context.Background(), *f.Diag.Addr)
		if err != nil {
			return nil, err
		}
		fmt.Printf("diagnostics: http://%s (metrics, hotlines, findings, timeline, spans, debug/pprof)\n", bound)
	}

	// Fleet streaming: server trouble never touches the run — the client
	// buffers, retries with backoff, and degrades to -fleet-spool.
	if f.Fleet.Enabled() {
		var err error
		if s.fc, s.runID, err = f.Fleet.Client(cfg.Tool); err != nil {
			return nil, err
		}
		s.stopRep = s.fc.StartReporter(f.Fleet.ReportInterval(), s.runtimeMetrics)
	}

	if *f.TimelineOut != "" || s.diagSrv != nil || s.fc != nil {
		s.OnRuntime = s.setRuntime
	}
	s.hb = obs.StartHeartbeat(s.Observer, cfg.Heartbeat, *f.MetricsOut)
	// An interrupted run exits 130 or 143 whatever the flush returns.
	s.stopInt = obs.FlushOnInterrupt(func() { _ = s.flush() }, nil)
	return s, nil
}

// setRuntime keeps the latest runtime for the timeline and the fleet
// snapshots, and re-points the diagnostics server at it.
func (s *Session) setRuntime(rt *core.Runtime) {
	s.rt.Store(rt)
	if s.diagSrv != nil {
		s.diagSrv.SetRuntime(rt)
	}
}

// Finish ends a run that succeeded: it ends the root span, writes
// -spans-out and -timeline-out (tracks named by threads), flushes the
// metrics and event files, and ships the run to the fleet with the payload
// findings builds from the run's identity (a nil payload sends none). Every
// export is attempted; the failed ones come back joined.
func (s *Session) Finish(threads map[int]string, findings func(fleet.RunMeta) *fleet.FindingsPayload) error {
	s.Span.End()
	var errs []error
	if path := *s.f.SpansOut; path != "" {
		if err := spans.WriteOTLPFile(path, s.tool, s.tracer.Snapshot()); err != nil {
			errs = append(errs, fmt.Errorf("writing %s: %w", path, err))
		} else {
			fmt.Printf("spans: %s (OTLP/JSON, trace %s)\n", path, s.tracer.TraceID())
		}
	}
	if path := *s.f.TimelineOut; path != "" {
		if err := s.writeTimeline(path, threads); err != nil {
			errs = append(errs, err)
		} else {
			fmt.Printf("timeline: %s (load in ui.perfetto.dev)\n", path)
		}
	}
	errs = append(errs, s.flush())
	s.stopInt()
	s.ship(findings)
	return errors.Join(errs...)
}

// Fail reports err and exits 1 through the flush an interrupt runs, so an
// error exit still leaves complete metrics and event files.
func (s *Session) Fail(err error) {
	err = errors.Join(err, s.flush())
	for _, line := range strings.Split(err.Error(), "\n") {
		fmt.Fprintf(os.Stderr, "%s: %s\n", s.tool, line)
	}
	os.Exit(1)
}

// Close keeps the diagnostics server scrapeable for -diag-linger, then shuts
// it down. The CLIs defer it; error exits skip it.
func (s *Session) Close() {
	s.f.Diag.ShutdownAfterLinger(s.diagSrv, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
}

// flush stops the heartbeat, writes the final metrics snapshot, and drains
// and closes the event file. Finish, Fail and the interrupt handler all end
// here; only the first call does the work and returns its error.
func (s *Session) flush() (err error) {
	s.flushed.Do(func() {
		s.hb.Stop()
		var errs []error
		if path := *s.f.MetricsOut; path != "" {
			if werr := s.Observer.Metrics().WriteSnapshotFile(path); werr != nil {
				errs = append(errs, fmt.Errorf("writing %s: %w", path, werr))
			}
		}
		if s.events != nil {
			if werr := errors.Join(s.events.Flush(), s.evFile.Close()); werr != nil {
				errs = append(errs, fmt.Errorf("writing %s: %w", *s.f.EventsOut, werr))
			}
		}
		err = errors.Join(errs...)
	})
	return err
}

// writeTimeline dumps the latest runtime's flight recorders.
func (s *Session) writeTimeline(path string, threads map[int]string) error {
	rt := s.rt.Load()
	switch {
	case rt == nil:
		return errors.New("-timeline-out: no instrumented run performed (native and capture-only runs have no timeline)")
	case !rt.FlightEnabled():
		return errors.New("-timeline-out: flight recording is disabled in the runtime config")
	}
	return traceout.WriteTimelineFile(path, rt.FlightDump(0, -1), threads)
}

// runtimeMetrics is the fleet reporter's source: the latest runtime's
// counters and hottest lines, nil until a runtime exists.
func (s *Session) runtimeMetrics() *fleet.MetricsPayload {
	rt := s.rt.Load()
	if rt == nil {
		return nil
	}
	mp := fleetclient.SnapshotRuntime(rt, 10, s.Observer.Metrics().Snapshot())
	if mp != nil {
		mp.Run = s.runID
	}
	return mp
}

// ship sends the run to the fleet — findings, a final hot-line snapshot and
// the span trace — then drains the client.
func (s *Session) ship(findings func(fleet.RunMeta) *fleet.FindingsPayload) {
	if s.fc == nil {
		return
	}
	s.stopRep()
	// Sends are best effort: Close below reports every payload that was
	// dropped or left undelivered.
	if fp := findings(s.fc.RunMeta(s.runID, s.start)); fp != nil {
		_ = s.fc.SendFindings(fp)
	}
	if mp := s.runtimeMetrics(); mp != nil {
		_ = s.fc.SendMetrics(mp)
	}
	_ = s.fc.SendSpans(&fleet.SpansPayload{
		Run:     s.runID,
		TraceID: s.tracer.TraceID().String(),
		Spans:   s.tracer.Snapshot(),
	})
	if err := s.fc.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", s.tool, err)
		return
	}
	st := s.fc.Stats()
	fmt.Fprintf(os.Stderr, "fleet: run %s -> %s (sent=%d spooled=%d)\n",
		s.runID, *s.f.Fleet.Addr, st.Sent, st.Spooled)
}
