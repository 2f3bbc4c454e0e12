package agent

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"predator/internal/eval"
	"predator/internal/obs/spans"
	_ "predator/internal/workloads/phoenix"
)

// startSession registers the exporter flags on a fresh flag set, parses
// args and starts a session.
func startSession(t *testing.T, cfg Config, args ...string) *Session {
	t.Helper()
	fs := flag.NewFlagSet("agent", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	s, err := f.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFinishAttemptsEveryExport: a timeline with no runtime to dump fails
// Finish, yet the span and metrics files are still written.
func TestFinishAttemptsEveryExport(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	s := startSession(t, Config{Tool: "agenttest", Deterministic: true},
		"-metrics-out", path("metrics.prom"),
		"-spans-out", path("spans.json"), "-timeline-out", path("timeline.json"))
	s.Observer.Metrics().Counter("predator_allocs_total", "").Inc()

	err := s.Finish(nil)
	if err == nil || !strings.Contains(err.Error(), "-timeline-out") {
		t.Fatalf("Finish = %v, want the -timeline-out failure", err)
	}
	for _, name := range []string{"metrics.prom", "spans.json"} {
		if fi, err := os.Stat(path(name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written (%v)", name, err)
		}
	}
	if _, err := os.Stat(path("timeline.json")); !os.IsNotExist(err) {
		t.Errorf("timeline.json exists without a runtime to dump (%v)", err)
	}
}

// TestConcurrentFlushes: an error exit racing an interrupt calls flush from
// two goroutines while the heartbeat runs. One call does the work: the
// heartbeat stops once, and the metrics file holds the final snapshot, which
// a later flush does not rewrite.
func TestConcurrentFlushes(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.prom")
	s := startSession(t, Config{Tool: "agenttest", Heartbeat: time.Millisecond},
		"-metrics-out", metrics)
	defer s.stopInt()
	const allocs = 1000
	allocsC := s.Observer.Metrics().Counter("predator_allocs_total", "")
	for i := 0; i < allocs; i++ {
		allocsC.Inc()
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.flush(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	allocsC.Inc() // after the flush: must not reach the file
	if err := s.flush(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("predator_allocs_total %d\n", allocs); !strings.Contains(string(raw), want) {
		t.Errorf("metrics snapshot lacks %q:\n%s", want, raw)
	}
}

// TestNoRuntimeKeptWithoutReader: only -timeline-out and -diag-addr read the
// last runtime, so a session without them keeps none. A kept
// runtime stays reachable into the next workload's memory baseline, and
// Figure 8 then charges every workload after the first one runtime too few.
// A session with a reader gets nil before each baseline and still has the
// last runtime to dump when the run finishes.
func TestNoRuntimeKeptWithoutReader(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	for _, args := range [][]string{
		{"-metrics-out", path("metrics.prom"), "-spans-out", path("spans.json")},
		{"-timeline-out", path("timeline.json")},
	} {
		s := startSession(t, Config{Tool: "agenttest"}, args...)
		cfg := eval.Default()
		cfg.Repeats = 1
		cfg.Observer, cfg.Span, cfg.OnRuntime = s.Observer, s.Span, s.OnRuntime
		rows, err := eval.Figure8(cfg, []string{"histogram", "word_count"})
		if err != nil {
			s.stopInt()
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.PredatorBytes <= r.OriginalBytes {
				t.Errorf("%s %s: PREDATOR memory (%d) not above Original (%d)", args[0], r.Workload, r.PredatorBytes, r.OriginalBytes)
			}
		}
		if err := s.Finish(nil); err != nil {
			t.Errorf("%s: Finish = %v", args[0], err)
		}
	}
	if fi, err := os.Stat(path("timeline.json")); err != nil || fi.Size() == 0 {
		t.Errorf("-timeline-out session wrote no timeline at Finish (%v)", err)
	}
}

// TestSpansLineReportsDropped: once a run finishes more spans than the
// tracer's buffer holds, the spans status line says how many it dropped, so
// a truncated -spans-out file does not read like a complete trace. A run
// that fits says nothing about dropping.
func TestSpansLineReportsDropped(t *testing.T) {
	dir := t.TempDir()
	// The cli.run root ends at Finish too: one span more than the children.
	over := fmt.Sprintf("; kept the newest %d spans, dropped 11 older)", spans.DefaultCapacity)
	for _, tc := range []struct {
		children int
		dropped  string // the line's tail when spans were dropped, "" when none were
	}{{spans.DefaultCapacity + 10, over}, {10, ""}} {
		out := filepath.Join(dir, fmt.Sprintf("spans%d.json", tc.children))
		s := startSession(t, Config{Tool: "agenttest", Deterministic: true}, "-spans-out", out)
		for i := 0; i < tc.children; i++ {
			s.Span.Child("predict.search").End()
		}
		line := captureStderr(t, func() {
			if err := s.Finish(nil); err != nil {
				t.Error(err)
			}
		})
		line = strings.TrimSuffix(line, "\n")
		want := fmt.Sprintf("spans: %s (OTLP/JSON, trace %s%s", out, s.tracer.TraceID(), tc.dropped)
		if tc.dropped == "" {
			want += ")"
		}
		if line != want {
			t.Errorf("%d spans: status line\n%q, want\n%q", tc.children+1, line, want)
		}
	}
}

// captureStderr returns what fn writes to os.Stderr.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = stderr }()
	fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
