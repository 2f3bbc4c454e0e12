package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := OpenStore(StoreConfig{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

func TestStoreRoundtripAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)

	if _, err := s.AppendFindings("acme", mkRun("r1", "db", "mysql",
		finding("counter", "false sharing", "observed", 500))); err != nil {
		t.Fatalf("AppendFindings r1: %v", err)
	}
	if _, err := s.AppendFindings("acme", mkRun("r2", "db", "mysql",
		finding("counter", "false sharing", "observed", 450),
		finding("table", "true sharing", "observed", 90))); err != nil {
		t.Fatalf("AppendFindings r2: %v", err)
	}
	if err := s.AppendMetrics("acme", &MetricsPayload{
		Project: "db", Agent: "agent-1", UnixMs: 10,
		Stats:    StatsSnapshot{Accesses: 1000, Invalidations: 70},
		HotLines: []HotLine{{Line: 4, Addr: 0x100, Invalidations: 70, Owners: "01S."}},
	}); err != nil {
		t.Fatalf("AppendMetrics: %v", err)
	}

	// Index queries against the live store.
	projects := s.Projects("acme")
	if len(projects) != 1 || projects[0].Project != "db" || projects[0].Runs != 2 ||
		projects[0].Findings != 3 || projects[0].Agents != 1 {
		t.Fatalf("Projects = %+v", projects)
	}
	runs := s.Runs("acme", "db", 0)
	if len(runs) != 2 || runs[0].ID != "r2" || runs[1].ID != "r1" {
		t.Fatalf("Runs (newest first) = %+v", runs)
	}
	if runs[0].Counts.FalseSharing != 1 || runs[0].Counts.Findings != 2 {
		t.Fatalf("r2 counts = %+v", runs[0].Counts)
	}
	if got := s.Runs("acme", "db", 1); len(got) != 1 || got[0].ID != "r2" {
		t.Fatalf("Runs capped = %+v", got)
	}
	if fs := s.Findings("acme", "db", 0); len(fs) != 3 {
		t.Fatalf("Findings = %d, want 3", len(fs))
	}
	// Tenancy: another tenant sees nothing.
	if got := s.Projects("rival"); got != nil {
		t.Fatalf("cross-tenant Projects = %+v", got)
	}
	if got := s.Runs("rival", "db", 0); got != nil {
		t.Fatalf("cross-tenant Runs = %+v", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the salvage scan rebuilds the identical index.
	s2 := openTestStore(t, dir)
	defer s2.Close()
	rec := s2.Recovery()
	if !rec.Clean() || rec.Records != 3 {
		t.Fatalf("recovery = %+v, want 3 clean records", rec)
	}
	if runs := s2.Runs("acme", "db", 0); len(runs) != 2 || runs[0].ID != "r2" {
		t.Fatalf("recovered Runs = %+v", runs)
	}
	entry, err := s2.Run("acme", "db", "r1")
	if err != nil || entry.Counts.Findings != 1 {
		t.Fatalf("recovered Run(r1) = %+v, %v", entry, err)
	}
	if mps := s2.FreshAgentMetrics("acme", "db", time.Now(), time.Hour); len(mps) != 1 || mps[0].HotLines[0].Owners != "01S." {
		t.Fatalf("recovered FreshAgentMetrics = %+v", mps)
	}
}

func TestStoreDuplicateRunIsIdempotent(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	if _, err := s.AppendFindings("acme", mkRun("r1", "db", "mysql",
		finding("counter", "false sharing", "observed", 500))); err != nil {
		t.Fatalf("first append: %v", err)
	}
	entry, err := s.AppendFindings("acme", mkRun("r1", "db", "mysql"))
	if !errors.Is(err, ErrDuplicateRun) {
		t.Fatalf("replay err = %v, want ErrDuplicateRun", err)
	}
	if entry == nil || entry.Duplicates != 1 || entry.Counts.Findings != 1 {
		t.Fatalf("replay entry = %+v", entry)
	}
	// The replay wrote nothing: only the original line is on disk.
	if got := s.Appends(); got != 1 {
		t.Fatalf("Appends = %d, want 1", got)
	}
}

func TestStoreRejectsUnidentifiedRuns(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	if _, err := s.AppendFindings("acme", &FindingsPayload{Run: RunMeta{Project: "db"}}); err == nil {
		t.Fatal("append without run id succeeded")
	}
	if _, err := s.AppendFindings("acme", &FindingsPayload{Run: RunMeta{ID: "r1"}}); err == nil {
		t.Fatal("append without project succeeded")
	}
	if err := s.AppendMetrics("acme", &MetricsPayload{Agent: "a"}); err == nil {
		t.Fatal("metrics without project succeeded")
	}
}

// TestStoreSalvageSkipsDamage damages a closed segment three ways — garbage
// line, payload corruption under an intact CRC, torn tail — and verifies the
// reopen salvages everything else.
func TestStoreSalvageSkipsDamage(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	for _, id := range []string{"r1", "r2", "r3"} {
		if _, err := s.AppendFindings("acme", mkRun(id, "db", "mysql",
			finding("counter", "false sharing", "observed", 500))); err != nil {
			t.Fatalf("append %s: %v", id, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("reading segment: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("segment has %d lines, want 3", len(lines))
	}
	// r2's payload bytes get stomped without updating the envelope CRC.
	corrupted := strings.Replace(lines[1], `"invalidations":500`, `"invalidations":999`, 1)
	if corrupted == lines[1] {
		t.Fatal("corruption target not found in line")
	}
	mangled := lines[0] + "\n{this is not json}\n" + corrupted + "\n" + lines[2] + "\n" +
		`{"v":1,"type":"findings","torn`
	if err := os.WriteFile(seg, []byte(mangled), 0o644); err != nil {
		t.Fatalf("writing mangled segment: %v", err)
	}

	s2 := openTestStore(t, dir)
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Records != 2 || rec.CorruptLines != 2 || rec.TruncatedTails != 1 {
		t.Fatalf("recovery = %+v, want 2 records, 2 corrupt, 1 torn tail", rec)
	}
	runs := s2.Runs("acme", "db", 0)
	if len(runs) != 2 || runs[0].ID != "r3" || runs[1].ID != "r1" {
		t.Fatalf("salvaged runs = %+v, want r3,r1 (r2 corrupt)", runs)
	}
}

// TestStoreSkipsUnknownRecordTypes: intact envelopes of a type this build
// does not apply — a made-up one, and the raw trace uploads older predfleets
// stored — are counted as unknown types, not as corrupt lines, and the
// records beside them still load.
func TestStoreSkipsUnknownRecordTypes(t *testing.T) {
	dir := t.TempDir()
	findings, err := json.Marshal(mkRun("r1", "db", "mysql", finding("counter", "false sharing", "observed", 500)))
	if err != nil {
		t.Fatal(err)
	}
	var seg []byte
	for _, rec := range []struct {
		typ     string
		payload []byte
	}{
		{"bogus", []byte(`{"anything":1}`)},
		{"trace", []byte(`{"meta":{"project":"db","run":"r1","bytes":3,"events":0},"data":"AQID"}`)},
		{TypeFindings, findings},
	} {
		line, err := json.Marshal(&Envelope{
			V: EnvelopeVersion, Type: rec.typ, Tenant: "acme", Project: "db", Run: "r1",
			CRC: PayloadCRC(rec.payload), Payload: rec.payload,
		})
		if err != nil {
			t.Fatal(err)
		}
		seg = append(append(seg, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	s := openTestStore(t, dir)
	defer s.Close()
	if rec := s.Recovery(); rec.Records != 1 || rec.CorruptLines != 0 || rec.UnknownTypes != 2 {
		t.Fatalf("recovery = %+v, want 1 record, 0 corrupt, 2 unknown types", rec)
	}
	if e, err := s.Run("acme", "db", "r1"); err != nil || e.Counts.Findings != 1 {
		t.Fatalf("findings run beside the unknown records = %+v, %v", e, err)
	}
}

func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreConfig{Dir: dir, NoSync: true, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	for _, id := range []string{"r1", "r2", "r3", "r4"} {
		if _, err := s.AppendFindings("acme", mkRun(id, "db", "mysql",
			finding("counter", "false sharing", "observed", 500))); err != nil {
			t.Fatalf("append %s: %v", id, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, err := s.segments()
	if err != nil {
		t.Fatalf("segments: %v", err)
	}
	if len(names) < 2 {
		t.Fatalf("got %d segments, want rotation to have produced at least 2", len(names))
	}
	s2 := openTestStore(t, dir)
	defer s2.Close()
	if rec := s2.Recovery(); rec.Records != 4 || !rec.Clean() {
		t.Fatalf("recovery across segments = %+v", rec)
	}
}

// TestStoreSeedHistoryFixture opens the committed fixture — the repo's two
// historical bench sweeps (the retired BENCH_baseline.json and the PR-5 CI
// gate) ingested as fleet runs — proving stored segments stay readable
// across sessions and bench-backed diffs work on real documents.
func TestStoreSeedHistoryFixture(t *testing.T) {
	s := openTestStore(t, copyFixture(t, "seed-history"))
	defer s.Close()
	if rec := s.Recovery(); !rec.Clean() || rec.Records != 2 {
		t.Fatalf("fixture recovery = %+v, want 2 clean records", rec)
	}
	runs := s.Runs("ci", "predator-ci", 0)
	if len(runs) != 2 || !runs[0].HasBench || !runs[1].HasBench {
		t.Fatalf("fixture runs = %+v", runs)
	}
	base, err := s.Run("ci", "predator-ci", "pr0-seed-baseline")
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	head, err := s.Run("ci", "predator-ci", "pr5-perf-gate")
	if err != nil {
		t.Fatalf("gate run: %v", err)
	}
	d, err := DiffRuns("predator-ci", base, head, 0.10)
	if err != nil {
		t.Fatalf("DiffRuns over fixture: %v", err)
	}
	if d.Bench == nil || len(d.Bench.Deltas) == 0 {
		t.Fatalf("fixture diff compared no bench rows: %+v", d.Bench)
	}
}

// copyFixture copies the segments of testdata/<name> into a temporary
// directory and returns it: OpenStore starts a fresh segment in its
// directory, so a test never opens the committed one in place.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	names, err := filepath.Glob(filepath.Join("testdata", name, "seg-*.jsonl"))
	if err != nil || len(names) == 0 {
		t.Fatalf("fixture segments: %v (%d found)", err, len(names))
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestStoreAgentRunFixture reopens the segment a predator run streamed
// through predfleet while metrics payloads still carried the agent's whole
// registry as "snapshot": one findings, one metrics and one spans
// envelope. All three still apply, and the run, the agent's hot lines and
// the trace are served.
func TestStoreAgentRunFixture(t *testing.T) {
	// Hotlines drop agents silent for longer than AgentTTL, so the clock
	// stands at the fixture's last envelope.
	fc := &fakeClock{t: time.UnixMilli(1792260052707)}
	dir := copyFixture(t, "agent-run")
	if seg, err := os.ReadFile(filepath.Join(dir, segmentName(1))); err != nil || !strings.Contains(string(seg), `"snapshot":{`) {
		t.Fatalf("fixture metrics envelope lost its snapshot field (%v)", err)
	}
	s, err := OpenStore(StoreConfig{Dir: dir, NoSync: true, Clock: fc.Now})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	if rec := s.Recovery(); !rec.Clean() || rec.Records != 3 {
		t.Fatalf("fixture recovery = %+v, want 3 clean records", rec)
	}
	_, ts := newTestServer(t, func(cfg *ServerConfig) {
		cfg.Store = s
		cfg.Clock = fc.Now
	})
	get := func(path string, v any) {
		t.Helper()
		code, body, _ := do(t, http.MethodGet, ts.URL+path, "s3cret", nil)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d (%s)", path, code, body)
		}
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	var runs RunsResponse
	get("/api/v1/runs?project=db", &runs)
	if runs.Count != 1 || runs.Runs[0].ID != "run-1" || runs.Runs[0].Counts.Findings != 1 {
		t.Fatalf("runs = %+v", runs)
	}
	var hl HotLinesResponse
	get("/api/v1/hotlines?project=db", &hl)
	if hl.Agents != 1 || hl.Count == 0 || hl.Lines[0].Trace == "" {
		t.Fatalf("hotlines = %+v, want the agent's lines tagged with its trace", hl)
	}
	var traces TracesResponse
	get("/api/v1/traces?project=db", &traces)
	if traces.Count != 1 || traces.Traces[0].Run != "run-1" || traces.Traces[0].TraceID != hl.Lines[0].Trace {
		t.Fatalf("traces = %+v", traces)
	}
}

func TestStoreMetricsKeepsLatestPerAgent(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	for i, inval := range []uint64{10, 70} {
		if err := s.AppendMetrics("acme", &MetricsPayload{
			Project: "db", Agent: "agent-1", UnixMs: int64(i + 1),
			Stats: StatsSnapshot{Invalidations: inval},
		}); err != nil {
			t.Fatalf("AppendMetrics: %v", err)
		}
	}
	mps := s.FreshAgentMetrics("acme", "db", time.Now(), time.Hour)
	if len(mps) != 1 || mps[0].Stats.Invalidations != 70 {
		t.Fatalf("FreshAgentMetrics = %+v, want only the latest snapshot", mps)
	}
}

func TestStoreSegmentRetentionPrunesAcked(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreConfig{Dir: dir, NoSync: true, SegmentBytes: 512, RetainSegments: 2})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	for i := 0; i < 12; i++ {
		if _, err := s.AppendFindings("acme", mkRun(fmt.Sprintf("r%d", i), "db", "mysql",
			finding("counter", "false sharing", "observed", 500))); err != nil {
			t.Fatalf("append r%d: %v", i, err)
		}
	}
	names, err := s.segments()
	if err != nil {
		t.Fatalf("segments: %v", err)
	}
	if len(names) > 2 {
		t.Fatalf("%d segments on disk, retention of 2 did not prune: %v", len(names), names)
	}
	if s.PrunedSegments() == 0 {
		t.Fatal("no segments pruned despite many rotations")
	}
	// The active segment survived pruning and keeps accepting writes.
	if _, err := s.AppendFindings("acme", mkRun("tail", "db", "mysql")); err != nil {
		t.Fatalf("append after pruning: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen salvages cleanly from whatever survived.
	s2 := openTestStore(t, dir)
	defer s2.Close()
	if rec := s2.Recovery(); !rec.Clean() || rec.Records == 0 {
		t.Fatalf("recovery after pruning = %+v", rec)
	}
	if _, err := s2.Run("acme", "db", "tail"); err != nil {
		t.Fatalf("recent run lost to pruning: %v", err)
	}
}

func TestStoreFreshAgentMetricsExpiresSilent(t *testing.T) {
	fc := newFakeClock()
	s, err := OpenStore(StoreConfig{Dir: t.TempDir(), NoSync: true, Clock: fc.Now})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer s.Close()
	app := func(agent string) {
		t.Helper()
		if err := s.AppendMetrics("acme", &MetricsPayload{Project: "db", Agent: agent}); err != nil {
			t.Fatalf("AppendMetrics: %v", err)
		}
	}
	app("stale-1")
	fc.Advance(40 * time.Second)
	app("fresh-1")
	fresh := s.FreshAgentMetrics("acme", "db", fc.Now(), 30*time.Second)
	if len(fresh) != 1 || fresh[0].Agent != "fresh-1" {
		t.Fatalf("FreshAgentMetrics = %+v, want only fresh-1", fresh)
	}
	// A window longer than the silence keeps both, sorted by agent.
	all := s.FreshAgentMetrics("acme", "db", fc.Now(), time.Minute)
	if len(all) != 2 || all[0].Agent != "fresh-1" || all[1].Agent != "stale-1" {
		t.Fatalf("FreshAgentMetrics over a minute = %+v, want both agents", all)
	}
}
