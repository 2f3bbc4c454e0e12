package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"predator/internal/resilience"
)

// newTestServer stands up a store-backed server on httptest, token "s3cret"
// mapping to tenant "acme".
func newTestServer(t *testing.T, mutate func(*ServerConfig)) (*Server, *httptest.Server) {
	t.Helper()
	store, err := OpenStore(StoreConfig{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	cfg := ServerConfig{
		Store:  store,
		Tokens: map[string]string{"s3cret": "acme", "r1val": "rival"},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		store.Close()
	})
	return srv, ts
}

// do performs one request and returns status and body.
func do(t *testing.T, method, url, token string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header
}

// postRun ingests one findings payload and asserts the expected status.
func postRun(t *testing.T, base, token string, fp *FindingsPayload, wantStatus int) ingestAck {
	t.Helper()
	body, err := json.Marshal(fp)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	code, data, _ := do(t, http.MethodPost, base+"/api/v1/ingest/findings", token, body)
	if code != wantStatus {
		t.Fatalf("ingest findings = %d (%s), want %d", code, data, wantStatus)
	}
	var ack ingestAck
	if wantStatus < 300 {
		if err := json.Unmarshal(data, &ack); err != nil {
			t.Fatalf("ack decode: %v (%s)", err, data)
		}
	}
	return ack
}

func TestServerAuth(t *testing.T) {
	_, ts := newTestServer(t, nil)

	// Query and ingestion surfaces demand a token...
	for _, path := range []string{"/api/v1/projects", "/api/v1/runs?project=db"} {
		if code, _, _ := do(t, http.MethodGet, ts.URL+path, "", nil); code != http.StatusUnauthorized {
			t.Fatalf("GET %s unauthenticated = %d, want 401", path, code)
		}
		if code, _, _ := do(t, http.MethodGet, ts.URL+path, "wrong", nil); code != http.StatusUnauthorized {
			t.Fatalf("GET %s bad token = %d, want 401", path, code)
		}
	}
	if code, _, _ := do(t, http.MethodPost, ts.URL+"/api/v1/ingest/findings", "", []byte("{}")); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated ingest = %d, want 401", code)
	}

	// ...while health and metrics stay open for probes and scrapers.
	if code, _, _ := do(t, http.MethodGet, ts.URL+"/healthz", "", nil); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	code, body, _ := do(t, http.MethodGet, ts.URL+"/metrics", "", nil)
	if code != http.StatusOK || !strings.Contains(string(body), "predfleet_ingest_total") {
		t.Fatalf("/metrics = %d, predfleet_ingest_total present=%v",
			code, strings.Contains(string(body), "predfleet_ingest_total"))
	}

	// The X-Predfleet-Token header authenticates too (curl-friendly).
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/projects", nil)
	req.Header.Set("X-Predfleet-Token", "s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("header-token request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("X-Predfleet-Token auth = %d, want 200", resp.StatusCode)
	}
}

func TestServerIngestQueryDiff(t *testing.T) {
	_, ts := newTestServer(t, nil)

	ack := postRun(t, ts.URL, "s3cret", mkRun("base", "db", "mysql",
		finding("gone", "false sharing", "observed", 300),
		finding("stays", "false sharing", "observed", 100)), http.StatusCreated)
	if ack.Status != "ok" || ack.Run != "base" {
		t.Fatalf("ack = %+v", ack)
	}
	postRun(t, ts.URL, "s3cret", mkRun("head", "db", "mysql",
		finding("stays", "false sharing", "observed", 120),
		finding("fresh", "false sharing", "observed", 900)), http.StatusCreated)

	// Replayed run ID: idempotent 200 with the duplicate flag.
	dup := postRun(t, ts.URL, "s3cret", mkRun("base", "db", "mysql"), http.StatusOK)
	if dup.Status != "duplicate" || !dup.Duplicate {
		t.Fatalf("duplicate ack = %+v", dup)
	}

	// Run history, newest first.
	code, body, _ := do(t, http.MethodGet, ts.URL+"/api/v1/runs?project=db", "s3cret", nil)
	if code != http.StatusOK {
		t.Fatalf("/runs = %d (%s)", code, body)
	}
	var runs RunsResponse
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatalf("runs decode: %v", err)
	}
	if runs.Count != 2 || runs.Runs[0].ID != "head" || runs.Runs[1].Duplicates != 1 {
		t.Fatalf("runs = %+v", runs)
	}

	// The regression diff between the two runs.
	code, body, _ = do(t, http.MethodGet, ts.URL+"/api/v1/diff?project=db&base=base&head=head", "s3cret", nil)
	if code != http.StatusOK {
		t.Fatalf("/diff = %d (%s)", code, body)
	}
	var delta RunDelta
	if err := json.Unmarshal(body, &delta); err != nil {
		t.Fatalf("diff decode: %v", err)
	}
	if len(delta.New) != 1 || delta.New[0].Label != "fresh" ||
		len(delta.Resolved) != 1 || delta.Resolved[0].Label != "gone" || !delta.Regressed {
		t.Fatalf("delta = %+v", delta)
	}

	// Unknown runs 404; missing params 400.
	if code, _, _ := do(t, http.MethodGet, ts.URL+"/api/v1/diff?project=db&base=base&head=nope", "s3cret", nil); code != http.StatusNotFound {
		t.Fatalf("diff unknown head = %d, want 404", code)
	}
	if code, _, _ := do(t, http.MethodGet, ts.URL+"/api/v1/diff?project=db", "s3cret", nil); code != http.StatusBadRequest {
		t.Fatalf("diff missing params = %d, want 400", code)
	}
	if code, _, _ := do(t, http.MethodGet, ts.URL+"/api/v1/runs", "s3cret", nil); code != http.StatusBadRequest {
		t.Fatalf("runs missing project = %d, want 400", code)
	}

	// Findings flatten across runs; tenancy hides them from other tenants.
	code, body, _ = do(t, http.MethodGet, ts.URL+"/api/v1/findings?project=db", "s3cret", nil)
	var fs FindingsResponse
	if code != http.StatusOK || json.Unmarshal(body, &fs) != nil || fs.Count != 4 {
		t.Fatalf("/findings = %d count=%d (%s)", code, fs.Count, body)
	}
	code, body, _ = do(t, http.MethodGet, ts.URL+"/api/v1/findings?project=db", "r1val", nil)
	var empty FindingsResponse
	if code != http.StatusOK || json.Unmarshal(body, &empty) != nil || empty.Count != 0 {
		t.Fatalf("cross-tenant findings = %d count=%d", code, empty.Count)
	}
}

func TestServerHostileBodies(t *testing.T) {
	_, ts := newTestServer(t, func(cfg *ServerConfig) { cfg.MaxBody = 1024 })
	ingest := ts.URL + "/api/v1/ingest/findings"

	// Truncated JSON.
	if code, _, _ := do(t, http.MethodPost, ingest, "s3cret", []byte(`{"run":{"id":"x"`)); code != http.StatusBadRequest {
		t.Fatalf("truncated body = %d, want 400", code)
	}
	// Binary garbage.
	if code, _, _ := do(t, http.MethodPost, ingest, "s3cret", []byte{0xff, 0xfe, 0x00, 0x01}); code != http.StatusBadRequest {
		t.Fatalf("binary body = %d, want 400", code)
	}
	// Valid JSON followed by trailing garbage must not half-parse.
	valid, _ := json.Marshal(mkRun("r1", "db", "mysql"))
	if code, _, _ := do(t, http.MethodPost, ingest, "s3cret", append(valid, []byte("{}")...)); code != http.StatusBadRequest {
		t.Fatalf("trailing garbage = %d, want 400", code)
	}
	// Well-formed but unidentified payload.
	if code, _, _ := do(t, http.MethodPost, ingest, "s3cret", []byte(`{"reports":{}}`)); code != http.StatusBadRequest {
		t.Fatalf("missing run identity = %d, want 400", code)
	}
	// Oversized payload: 413, not a truncated parse.
	big := fmt.Sprintf(`{"run":{"id":"big","project":"db"},"reports":{},"pad":%q}`, strings.Repeat("x", 2048))
	if code, _, _ := do(t, http.MethodPost, ingest, "s3cret", []byte(big)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", code)
	}
	// Wrong method.
	if code, _, _ := do(t, http.MethodGet, ingest, "s3cret", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest = %d, want 405", code)
	}
	// Nothing hostile made it into the store.
	code, body, _ := do(t, http.MethodGet, ts.URL+"/api/v1/projects", "s3cret", nil)
	var pr ProjectsResponse
	if code != http.StatusOK || json.Unmarshal(body, &pr) != nil || pr.Count != 0 {
		t.Fatalf("projects after hostile bodies = %d count=%d", code, pr.Count)
	}
}

func TestServerRateLimit(t *testing.T) {
	clock := newFakeClock()
	_, ts := newTestServer(t, func(cfg *ServerConfig) {
		cfg.Rate, cfg.Burst, cfg.Clock = 1.0, 2, clock.Now
	})

	postRun(t, ts.URL, "s3cret", mkRun("r1", "db", "mysql"), http.StatusCreated)
	postRun(t, ts.URL, "s3cret", mkRun("r2", "db", "mysql"), http.StatusCreated)

	body, _ := json.Marshal(mkRun("r3", "db", "mysql"))
	code, _, hdr := do(t, http.MethodPost, ts.URL+"/api/v1/ingest/findings", "s3cret", body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("burst overflow = %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want positive seconds", ra)
	}

	// The other tenant's ingestion proceeds while acme is shed.
	postRun(t, ts.URL, "r1val", mkRun("r1", "other", "mysql"), http.StatusCreated)

	// After the refill interval acme flows again — and r3 was never acked,
	// so the client retry ingests it fresh.
	clock.Advance(2 * time.Second)
	postRun(t, ts.URL, "s3cret", mkRun("r3", "db", "mysql"), http.StatusCreated)
}

func TestServerHotLinesAggregation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	post := func(mp *MetricsPayload) {
		t.Helper()
		body, _ := json.Marshal(mp)
		code, data, _ := do(t, http.MethodPost, ts.URL+"/api/v1/ingest/metrics", "s3cret", body)
		if code != http.StatusOK {
			t.Fatalf("ingest metrics = %d (%s)", code, data)
		}
	}
	post(&MetricsPayload{
		Project: "db", Agent: "agent-1", UnixMs: 1,
		Stats:    StatsSnapshot{Accesses: 100, Invalidations: 70},
		HotLines: []HotLine{{Line: 1, Addr: 0x40, Invalidations: 70, Owners: "01.."}},
	})
	post(&MetricsPayload{
		Project: "web", Agent: "agent-2", UnixMs: 2,
		Stats: StatsSnapshot{Accesses: 50, Invalidations: 220, Degraded: true},
		HotLines: []HotLine{
			{Line: 2, Addr: 0x80, Invalidations: 200, Owners: "SS.."},
			{Line: 3, Addr: 0xc0, Invalidations: 20},
		},
	})

	code, body, _ := do(t, http.MethodGet, ts.URL+"/api/v1/hotlines?n=2", "s3cret", nil)
	if code != http.StatusOK {
		t.Fatalf("/hotlines = %d (%s)", code, body)
	}
	var hl HotLinesResponse
	if err := json.Unmarshal(body, &hl); err != nil {
		t.Fatalf("hotlines decode: %v", err)
	}
	if hl.Tool != "predfleet" || hl.Agents != 2 || hl.Count != 2 {
		t.Fatalf("hotlines header = %+v", hl)
	}
	// Stats sum across agents; lines sort hottest-first with origin tags.
	if hl.Stats.Accesses != 150 || hl.Stats.Invalidations != 290 || !hl.Stats.Degraded {
		t.Fatalf("aggregated stats = %+v", hl.Stats)
	}
	if hl.Lines[0].Addr != 0x80 || hl.Lines[0].Agent != "agent-2" || hl.Lines[0].Project != "web" {
		t.Fatalf("lines[0] = %+v", hl.Lines[0])
	}
	if hl.Lines[1].Addr != 0x40 || hl.Lines[1].Agent != "agent-1" {
		t.Fatalf("lines[1] = %+v", hl.Lines[1])
	}

	// ?project= narrows the aggregation.
	code, body, _ = do(t, http.MethodGet, ts.URL+"/api/v1/hotlines?project=db", "s3cret", nil)
	if err := json.Unmarshal(body, &hl); code != http.StatusOK || err != nil {
		t.Fatalf("/hotlines?project=db = %d, %v", code, err)
	}
	if hl.Agents != 1 || hl.Count != 1 || hl.Lines[0].Project != "db" {
		t.Fatalf("project-scoped hotlines = %+v", hl)
	}
}

func postMetrics(t *testing.T, base string, mp *MetricsPayload) {
	t.Helper()
	body, _ := json.Marshal(mp)
	code, data, _ := do(t, http.MethodPost, base+"/api/v1/ingest/metrics", "s3cret", body)
	if code != http.StatusOK {
		t.Fatalf("ingest metrics = %d (%s)", code, data)
	}
}

// TestServerHotLinesExpireSilentAgents: an agent whose metrics stream has
// been silent for longer than AgentTTL leaves the hotlines aggregate.
func TestServerHotLinesExpireSilentAgents(t *testing.T) {
	fc := newFakeClock()
	store, err := OpenStore(StoreConfig{Dir: t.TempDir(), NoSync: true, Clock: fc.Now})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	_, ts := newTestServer(t, func(cfg *ServerConfig) {
		cfg.Store = store
		cfg.Clock = fc.Now
	})
	postMetrics(t, ts.URL, &MetricsPayload{Project: "db", Agent: "a1",
		Stats:    StatsSnapshot{Invalidations: 50},
		HotLines: []HotLine{{Addr: 0x1000, Invalidations: 50}}})

	fetch := func() HotLinesResponse {
		t.Helper()
		code, body, _ := do(t, http.MethodGet, ts.URL+"/api/v1/hotlines?project=db", "s3cret", nil)
		if code != http.StatusOK {
			t.Fatalf("hotlines = %d (%s)", code, body)
		}
		var hl HotLinesResponse
		if err := json.Unmarshal(body, &hl); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return hl
	}
	fc.Advance(AgentTTL)
	if hl := fetch(); hl.Agents != 1 || len(hl.Lines) != 1 {
		t.Fatalf("agent silent for exactly AgentTTL dropped: %+v", hl)
	}
	fc.Advance(time.Second)
	if hl := fetch(); hl.Agents != 0 || len(hl.Lines) != 0 {
		t.Fatalf("silent agent still aggregated: %+v", hl)
	}
}

func TestServerHealth(t *testing.T) {
	_, ts := newTestServer(t, nil)
	postRun(t, ts.URL, "s3cret", mkRun("r1", "db", "mysql"), http.StatusCreated)
	code, body, _ := do(t, http.MethodGet, ts.URL+"/healthz", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("health decode: %v", err)
	}
	if h.Status != "ok" || h.Tool != "predfleet" || h.Appends != 1 {
		t.Fatalf("health = %+v", h)
	}
}

// panicWriter panics on every segment write.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("disk sink exploded") }

// TestServerIngestPanicQuarantines: an ingest endpoint that panics answers
// 500 and counts the request as rejected; past the panic budget it answers
// 503 and /healthz lists it, while the query endpoints keep serving.
func TestServerIngestPanicQuarantines(t *testing.T) {
	store, err := OpenStore(StoreConfig{Dir: t.TempDir(), NoSync: true,
		WrapWriter: func(io.Writer) io.Writer { return panicWriter{} }})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	_, ts := newTestServer(t, func(cfg *ServerConfig) { cfg.Store = store })

	for i := 0; i < resilience.DefaultPanicLimit; i++ {
		postRun(t, ts.URL, "s3cret", mkRun(fmt.Sprintf("r%d", i), "db", "mysql"), http.StatusInternalServerError)
	}
	postRun(t, ts.URL, "s3cret", mkRun("late", "db", "mysql"), http.StatusServiceUnavailable)

	_, body, _ := do(t, http.MethodGet, ts.URL+"/metrics", "", nil)
	if want := fmt.Sprintf("\npredfleet_ingest_errors_total %d\n", resilience.DefaultPanicLimit); !strings.Contains(string(body), want) {
		t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
	}
	var h Health
	if code, body, _ := do(t, http.MethodGet, ts.URL+"/healthz", "", nil); code != http.StatusOK || json.Unmarshal(body, &h) != nil {
		t.Fatalf("/healthz = %d (%s)", code, body)
	}
	if len(h.Quarantined) != 1 || h.Quarantined[0] != "/api/v1/ingest/findings" {
		t.Errorf("quarantined = %v, want [/api/v1/ingest/findings]", h.Quarantined)
	}
	if code, _, _ := do(t, http.MethodGet, ts.URL+"/api/v1/projects", "s3cret", nil); code != http.StatusOK {
		t.Errorf("/api/v1/projects = %d, want 200", code)
	}
}
