package fleet

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"predator/internal/obs/spans"
)

// mkSpans builds a valid spans payload by running a real deterministic
// tracer: a cli.run root with a harness.workload child carrying attribution
// counters, exactly what an agent ships.
func mkSpans(t *testing.T, project, run string) *SpansPayload {
	t.Helper()
	tr := spans.New(spans.Config{Deterministic: true})
	root := tr.Start("cli.run", nil)
	root.SetLabel("tool", "predator")
	work := tr.Start("harness.workload", root)
	work.SetAttr("predator.accesses_dispatched", 1000)
	work.SetAttr("predator.invalidations", 42)
	work.End()
	root.End()
	return &SpansPayload{
		Project: project,
		Agent:   "a1",
		Tool:    "predator",
		Run:     run,
		TraceID: tr.TraceID().String(),
		Spans:   tr.Snapshot(),
	}
}

func postSpans(t *testing.T, base string, sp *SpansPayload, wantStatus int) {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	code, data, _ := do(t, http.MethodPost, base+"/api/v1/ingest/spans", "s3cret", body)
	if code != wantStatus {
		t.Fatalf("ingest spans = %d (%s), want %d", code, data, wantStatus)
	}
}

func TestStoreSpansRoundtripAndRecovery(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(StoreConfig{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	sp := mkSpans(t, "db", "r1")
	if err := store.AppendSpans("acme", sp); err != nil {
		t.Fatalf("AppendSpans: %v", err)
	}

	check := func(s *Store, stage string) {
		t.Helper()
		traces := s.Traces("acme", "db", 10)
		if len(traces) != 1 {
			t.Fatalf("%s: Traces = %v (want 1)", stage, traces)
		}
		ti := traces[0]
		if ti.TraceID != sp.TraceID || ti.Run != "r1" || ti.Root != "cli.run" || ti.Spans != 2 {
			t.Fatalf("%s: trace summary = %+v", stage, ti)
		}
		// Resolve by trace ID and by run ID — a finding's run handle must
		// lead to the same waterfall.
		for _, id := range []string{sp.TraceID, "r1"} {
			got, err := s.TraceSpans("acme", "db", id)
			if err != nil {
				t.Fatalf("%s: TraceSpans(%q): %v", stage, id, err)
			}
			if len(got.Spans) != 2 || got.TraceID != sp.TraceID {
				t.Fatalf("%s: TraceSpans(%q) = %+v", stage, id, got)
			}
		}
		if _, err := s.TraceSpans("acme", "db", "nope"); err != ErrUnknownTrace {
			t.Fatalf("%s: unknown trace err = %v", stage, err)
		}
		if id := s.TraceIDForRun("acme", "db", "r1"); id != sp.TraceID {
			t.Fatalf("%s: TraceIDForRun = %q", stage, id)
		}
	}
	check(store, "live")

	// Spans survive the store's crash-recovery scan.
	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	store2, err := OpenStore(StoreConfig{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store2.Close()
	check(store2, "recovered")
}

func TestStoreSpansLastWriteWinsPerRun(t *testing.T) {
	store, err := OpenStore(StoreConfig{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer store.Close()

	first := mkSpans(t, "db", "r1")
	if err := store.AppendSpans("acme", first); err != nil {
		t.Fatalf("AppendSpans: %v", err)
	}
	// An agent retry re-ships the same run with a fresh (longer) snapshot:
	// the new doc replaces the old one instead of duplicating the trace list.
	second := mkSpans(t, "db", "r1")
	tr := spans.New(spans.Config{Deterministic: true, Seed: 7})
	root := tr.Start("cli.run", nil)
	tr.Start("harness.setup", root).End()
	tr.Start("harness.workload", root).End()
	root.End()
	second.TraceID = tr.TraceID().String()
	second.Spans = tr.Snapshot()
	if err := store.AppendSpans("acme", second); err != nil {
		t.Fatalf("AppendSpans retry: %v", err)
	}

	traces := store.Traces("acme", "db", 10)
	if len(traces) != 1 {
		t.Fatalf("Traces after retry = %v (want 1)", traces)
	}
	if traces[0].Spans != 3 || traces[0].TraceID != second.TraceID {
		t.Fatalf("retry did not replace: %+v", traces[0])
	}
	// The superseded trace ID no longer resolves; the new one does.
	if _, err := store.TraceSpans("acme", "db", first.TraceID); err != ErrUnknownTrace {
		t.Fatalf("stale trace ID still resolves: %v", err)
	}
	if got, err := store.TraceSpans("acme", "db", "r1"); err != nil || len(got.Spans) != 3 {
		t.Fatalf("run handle after retry = %+v, %v", got, err)
	}
}

func TestServerSpansIngestAndTracesQuery(t *testing.T) {
	_, ts := newTestServer(t, nil)

	sp := mkSpans(t, "db", "r1")
	postSpans(t, ts.URL, sp, http.StatusOK)

	// Malformed payloads bounce with 400: wrong trace ID format...
	bad := mkSpans(t, "db", "r2")
	bad.TraceID = "zz"
	postSpans(t, ts.URL, bad, http.StatusBadRequest)
	// ...and spans from a different trace than the envelope claims.
	bad2 := mkSpans(t, "db", "r3")
	bad2.TraceID = strings.Repeat("ab", 16)
	postSpans(t, ts.URL, bad2, http.StatusBadRequest)

	// List view.
	code, body, _ := do(t, http.MethodGet, ts.URL+"/api/v1/traces?project=db", "s3cret", nil)
	if code != http.StatusOK {
		t.Fatalf("traces list = %d (%s)", code, body)
	}
	var list TracesResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if list.Count != 1 || len(list.Traces) != 1 || list.Traces[0].TraceID != sp.TraceID {
		t.Fatalf("list = %+v", list)
	}

	// Detail view by trace ID and by run ID.
	for _, id := range []string{sp.TraceID, "r1"} {
		code, body, _ = do(t, http.MethodGet, ts.URL+"/api/v1/traces?project=db&id="+id, "s3cret", nil)
		if code != http.StatusOK {
			t.Fatalf("trace detail(%s) = %d (%s)", id, code, body)
		}
		var det TracesResponse
		if err := json.Unmarshal(body, &det); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if det.Trace == nil || len(det.Trace.Spans) != 2 || det.Trace.TraceID != sp.TraceID {
			t.Fatalf("detail(%s) = %+v", id, det)
		}
	}
	if code, _, _ := do(t, http.MethodGet, ts.URL+"/api/v1/traces?project=db&id=nope", "s3cret", nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", code)
	}

	// Tenant isolation: the rival token sees nothing.
	code, body, _ = do(t, http.MethodGet, ts.URL+"/api/v1/traces?project=db", "r1val", nil)
	if code != http.StatusOK {
		t.Fatalf("rival traces = %d (%s)", code, body)
	}
	var rival TracesResponse
	if err := json.Unmarshal(body, &rival); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rival.Count != 0 {
		t.Fatalf("tenant leak: %+v", rival)
	}
}

func TestServerHotLinesCarryTraceAndElided(t *testing.T) {
	_, ts := newTestServer(t, nil)

	sp := mkSpans(t, "db", "r1")
	postSpans(t, ts.URL, sp, http.StatusOK)
	postMetrics(t, ts.URL, &MetricsPayload{Project: "db", Agent: "a1", Run: "r1",
		Stats:    StatsSnapshot{Invalidations: 50, Elided: 7},
		HotLines: []HotLine{{Addr: 0x1000, Invalidations: 50}}})

	code, body, _ := do(t, http.MethodGet, ts.URL+"/api/v1/hotlines?project=db", "s3cret", nil)
	if code != http.StatusOK {
		t.Fatalf("hotlines = %d (%s)", code, body)
	}
	var hl HotLinesResponse
	if err := json.Unmarshal(body, &hl); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(hl.Lines) != 1 || hl.Lines[0].Trace != sp.TraceID {
		t.Fatalf("hot line not tagged with its run's trace: %+v", hl.Lines)
	}
	if hl.Stats.Elided != 7 {
		t.Fatalf("aggregated elided = %d, want 7", hl.Stats.Elided)
	}
}

func TestDashTraceWaterfall(t *testing.T) {
	_, ts := newTestServer(t, nil)

	postRun(t, ts.URL, "s3cret", mkRun("r1", "db", "mysql",
		finding("counter", "false sharing", "observed", 100)), http.StatusCreated)
	sp := mkSpans(t, "db", "r1")
	postSpans(t, ts.URL, sp, http.StatusOK)

	// The waterfall renders every span as an SVG bar with its name in the
	// gutter, plus the attribute table underneath.
	code, body, _ := do(t, http.MethodGet, ts.URL+"/dash/db/trace/"+sp.TraceID+"?token=s3cret", "", nil)
	if code != http.StatusOK {
		t.Fatalf("waterfall = %d (%s)", code, body)
	}
	page := string(body)
	for _, want := range []string{"<svg", "cli.run", "harness.workload", "span attributes", "predator.accesses_dispatched"} {
		if !strings.Contains(page, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, page)
		}
	}
	for _, banned := range []string{"<script", "src=\"http", "href=\"http"} {
		if strings.Contains(page, banned) {
			t.Fatalf("waterfall references external asset %q", banned)
		}
	}
	// The waterfall is predfleet's only page, so it links nowhere, and no
	// project page, series or alerts route answers.
	if strings.Contains(page, "href=") {
		t.Fatalf("waterfall links to another page:\n%s", page)
	}
	for _, path := range []string{"/dash", "/dash/db", "/api/v1/series?project=db", "/api/v1/alerts"} {
		if code, _, _ := do(t, http.MethodGet, ts.URL+path, "s3cret", nil); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}

	if code, _, _ := do(t, http.MethodGet, ts.URL+"/dash/db/trace/ffffffffffffffffffffffffffffffff?token=s3cret", "", nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace waterfall = %d, want 404", code)
	}
}
