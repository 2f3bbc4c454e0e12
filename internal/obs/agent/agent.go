// Package agent is the export session the predator, predbench and predreplay
// CLIs share. It registers the exporter flags next to the diag flag group,
// builds the observer and the tracer (with its cli.run root span), starts
// the diagnostics server, heartbeat and interrupt flush, and at the end of
// the run writes every export file. An interrupt, an error exit and a clean
// finish all end in the same flush of the metrics file. Its status lines go
// to stderr, so that stdout carries only the CLI's own output (predator
// -json stays pure JSON).
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
	"predator/internal/obs"
	"predator/internal/obs/diag"
	"predator/internal/obs/spans"
	"predator/internal/obs/traceout"
)

// Flags is the exporter flag group: the three export files plus the -diag-*
// group.
type Flags struct {
	MetricsOut  *string
	TimelineOut *string
	SpansOut    *string
	Diag        *diag.Flags
}

// RegisterFlags declares the exporter flags on fs (flag.CommandLine in the
// CLIs).
func RegisterFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		MetricsOut:  fs.String("metrics-out", "", "write runtime metrics (aggregated across every run) in Prometheus text format to this file"),
		TimelineOut: fs.String("timeline-out", "", "write the last run's flight-recorder timeline as Perfetto/Chrome trace-event JSON to this file"),
		SpansOut:    fs.String("spans-out", "", "write the pipeline span trace as OTLP/JSON to this file"),
		Diag:        diag.RegisterFlags(fs),
	}
}

// Config is what differs between the CLIs.
type Config struct {
	Tool          string            // binary name: stderr prefix, build info, OTLP service
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
	// trace.ReplayOptions. Set only when -timeline-out or -diag-addr reads
	// the runtime: a kept runtime stays reachable into the next run, whose
	// memory measurement would then start high.
	OnRuntime func(*core.Runtime)

	f       *Flags
	tool    string
	tracer  *spans.Tracer
	diagSrv *diag.Server
	hb      *obs.Heartbeat
	stopInt func()
	rt      atomic.Pointer[core.Runtime]
	flushed sync.Once
}

// Start builds the session the parsed flags ask for.
func (f *Flags) Start(cfg Config) (*Session, error) {
	s := &Session{f: f, tool: cfg.Tool}
	if *f.MetricsOut != "" || *f.SpansOut != "" || f.Diag.Enabled() {
		// The tracer rides on the observer: its spans time the phase
		// histograms, and the root span parents every phase of the run.
		s.tracer = spans.New(spans.Config{Deterministic: cfg.Deterministic})
		s.Observer = obs.New(obs.NewRegistry(), s.tracer)
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
		fmt.Fprintf(os.Stderr, "diagnostics: http://%s (metrics, hotlines, findings, timeline, spans, debug/pprof)\n", bound)
	}

	if *f.TimelineOut != "" || s.diagSrv != nil {
		s.OnRuntime = s.setRuntime
	}
	s.hb = obs.StartHeartbeat(s.Observer.Metrics(), cfg.Heartbeat, *f.MetricsOut)
	// An interrupted run exits 130 or 143 whatever the flush returns.
	s.stopInt = obs.FlushOnInterrupt(func() { _ = s.flush() }, nil)
	return s, nil
}

// setRuntime keeps the latest runtime for the timeline and re-points the
// diagnostics server at it.
func (s *Session) setRuntime(rt *core.Runtime) {
	s.rt.Store(rt)
	if s.diagSrv != nil {
		s.diagSrv.SetRuntime(rt)
	}
}

// Finish ends a run that succeeded: it ends the root span, writes
// -spans-out and -timeline-out (tracks named by threads), and flushes the
// metrics file. Every export is attempted; the failed ones come back
// joined.
func (s *Session) Finish(threads map[int]string) error {
	s.Span.End()
	var errs []error
	if path := *s.f.SpansOut; path != "" {
		snap := s.tracer.Snapshot()
		if err := spans.WriteOTLPFile(path, s.tool, snap); err != nil {
			errs = append(errs, fmt.Errorf("writing %s: %w", path, err))
		} else {
			// A full buffer keeps the newest spans: say so, or the file
			// reads like a complete trace of the run.
			var dropped string
			if n := s.tracer.Dropped(); n > 0 {
				dropped = fmt.Sprintf("; kept the newest %d spans, dropped %d older", len(snap), n)
			}
			fmt.Fprintf(os.Stderr, "spans: %s (OTLP/JSON, trace %s%s)\n", path, s.tracer.TraceID(), dropped)
		}
	}
	if path := *s.f.TimelineOut; path != "" {
		if err := s.writeTimeline(path, threads); err != nil {
			errs = append(errs, err)
		} else {
			fmt.Fprintf(os.Stderr, "timeline: %s (load in ui.perfetto.dev)\n", path)
		}
	}
	errs = append(errs, s.flush())
	s.stopInt()
	return errors.Join(errs...)
}

// Fail reports err and exits 1 through the flush an interrupt runs, so an
// error exit still leaves a complete metrics file.
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
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
}

// flush stops the heartbeat and writes the final metrics snapshot. Finish,
// Fail and the interrupt handler all end here; only the first call does the
// work and returns its error.
func (s *Session) flush() (err error) {
	s.flushed.Do(func() {
		s.hb.Stop()
		if path := *s.f.MetricsOut; path != "" {
			if werr := s.Observer.Metrics().WriteSnapshotFile(path); werr != nil {
				err = fmt.Errorf("writing %s: %w", path, werr)
			}
		}
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
