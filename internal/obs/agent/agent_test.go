package agent

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"predator/internal/eval"
	"predator/internal/obs"
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
// Finish, yet the span, metrics and event files are still written.
func TestFinishAttemptsEveryExport(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	s := startSession(t, Config{Tool: "agenttest", Deterministic: true},
		"-metrics-out", path("metrics.prom"), "-events-out", path("events.jsonl"),
		"-spans-out", path("spans.json"), "-timeline-out", path("timeline.json"))
	s.Observer.Emit(obs.Event{Type: obs.EvAlloc, Addr: 0x40, Size: 64})

	err := s.Finish(nil, nil)
	if err == nil || !strings.Contains(err.Error(), "-timeline-out") {
		t.Fatalf("Finish = %v, want the -timeline-out failure", err)
	}
	for _, name := range []string{"metrics.prom", "events.jsonl", "spans.json"} {
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
// heartbeat stops once, with its final beat as the last whole line of the
// event file.
func TestConcurrentFlushes(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	s := startSession(t, Config{Tool: "agenttest", Heartbeat: time.Millisecond},
		"-metrics-out", filepath.Join(dir, "metrics.prom"), "-events-out", events)
	defer s.stopInt()
	const allocs = 1000
	for i := uint64(1); i <= allocs; i++ {
		s.Observer.Emit(obs.Event{Type: obs.EvAlloc, Addr: i * 64, Size: 64})
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

	raw, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	types := map[string]int{}
	var last string
	for i, line := range lines {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: %v: %q", i+1, err, line)
		}
		types[ev.Type]++
		last = ev.Type
	}
	if types["alloc"] != allocs || last != "heartbeat" {
		t.Errorf("events = %v ending in %q, want %d allocs ending in the final heartbeat", types, last, allocs)
	}
	if _, err := os.Stat(filepath.Join(dir, "metrics.prom")); err != nil {
		t.Errorf("no metrics snapshot: %v", err)
	}
}

// TestNoRuntimeKeptWithoutReader: only -timeline-out, -diag-addr and the
// fleet read the last runtime, so a session without them keeps none. A kept
// runtime stays reachable into the next workload's memory baseline, and
// Figure 8 then charges every workload after the first one runtime too few.
func TestNoRuntimeKeptWithoutReader(t *testing.T) {
	dir := t.TempDir()
	s := startSession(t, Config{Tool: "agenttest"},
		"-metrics-out", filepath.Join(dir, "metrics.prom"), "-events-out", filepath.Join(dir, "events.jsonl"),
		"-spans-out", filepath.Join(dir, "spans.json"))
	defer s.stopInt()
	cfg := eval.Default()
	cfg.Repeats = 1
	cfg.Observer, cfg.Span, cfg.OnRuntime = s.Observer, s.Span, s.OnRuntime
	rows, err := eval.Figure8(cfg, []string{"histogram", "word_count"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PredatorBytes <= r.OriginalBytes {
			t.Errorf("%s: PREDATOR memory (%d) not above Original (%d)", r.Workload, r.PredatorBytes, r.OriginalBytes)
		}
	}

	timeline := startSession(t, Config{Tool: "agenttest"}, "-timeline-out", filepath.Join(dir, "timeline.json"))
	defer timeline.stopInt()
	if timeline.OnRuntime == nil {
		t.Error("-timeline-out session keeps no runtime to dump")
	}
}
