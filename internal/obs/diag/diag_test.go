package diag_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"predator/internal/core"
	"predator/internal/mem"
	"predator/internal/obs"
	"predator/internal/obs/diag"
	"predator/internal/report"
	"predator/internal/resilience"
)

// newDetectingServer builds a heap + observed runtime with a driven false
// sharing pattern, attaches it to a diag server, and returns both.
func newDetectingServer(t testing.TB) (*diag.Server, *core.Runtime, *mem.Heap) {
	t.Helper()
	h, err := mem.NewHeap(mem.Config{Size: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rt, err := core.NewRuntime(h, core.Config{
		TrackingThreshold:   10,
		PredictionThreshold: 20,
		ReportThreshold:     50,
		Prediction:          true,
		Observer:            obs.New(reg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := diag.New(reg, "diagtest", obs.GetBuildInfo())
	s.SetSource(rt)
	return s, rt, h
}

// drive produces n ping-pong write rounds on one shared line.
func drive(t testing.TB, rt *core.Runtime, h *mem.Heap, n int) uint64 {
	t.Helper()
	addr, err := h.AllocWithOffset(0, 64, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rt.HandleAccess(1, addr, 8, true)
		rt.HandleAccess(2, addr+8, 8, true)
	}
	return addr
}

func get(t testing.TB, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, body
}

func TestEndpointContracts(t *testing.T) {
	s, rt, h := newDetectingServer(t)
	drive(t, rt, h, 500)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	t.Run("healthz", func(t *testing.T) {
		resp, body := get(t, srv, "/healthz")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("content type = %q, want application/json", ct)
		}
		var hl diag.Health
		if err := json.Unmarshal(body, &hl); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		if hl.Status != "ok" || hl.Tool != "diagtest" || !hl.SourceActive {
			t.Errorf("health = %+v, want ok/diagtest/source_active", hl)
		}
		if hl.GoVersion == "" || hl.Version == "" {
			t.Errorf("missing build identity: %+v", hl)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		resp, body := get(t, srv, "/metrics")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Errorf("content type = %q, want Prometheus 0.0.4", ct)
		}
		if !strings.Contains(string(body), "predator_accesses_total") {
			t.Error("metrics output missing predator_accesses_total")
		}
	})

	t.Run("hotlines", func(t *testing.T) {
		resp, body := get(t, srv, "/hotlines?n=5")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		var hr diag.HotLinesResponse
		if err := json.Unmarshal(body, &hr); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		if hr.Requested != 5 || hr.Count == 0 || len(hr.Lines) != hr.Count {
			t.Fatalf("envelope = requested %d count %d lines %d", hr.Requested, hr.Count, len(hr.Lines))
		}
		top := hr.Lines[0]
		if top.Invalidations == 0 {
			t.Error("hottest line has no invalidations")
		}
		if len(top.Words) == 0 {
			t.Error("hottest line has no word heatmap")
		}
		owners := map[int]bool{}
		for _, w := range top.Words {
			owners[w.Owner] = true
		}
		if !owners[1] || !owners[2] {
			t.Errorf("heatmap owners = %v, want both thread 1 and 2", owners)
		}
		if hr.Stats.Accesses == 0 || hr.Stats.TrackedLines == 0 {
			t.Errorf("stats = %+v, want live counters", hr.Stats)
		}
		for i := 1; i < len(hr.Lines); i++ {
			if hr.Lines[i].Invalidations > hr.Lines[i-1].Invalidations {
				t.Errorf("lines not sorted by invalidations at %d", i)
			}
		}
	})

	t.Run("hotlines-bad-n", func(t *testing.T) {
		resp, _ := get(t, srv, "/hotlines?n=bogus")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})

	t.Run("findings", func(t *testing.T) {
		resp, body := get(t, srv, "/findings")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		var fr diag.FindingsResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		if fr.Counts.Findings == 0 || fr.Counts.FalseSharing == 0 {
			t.Errorf("counts = %+v, want detected false sharing", fr.Counts)
		}
		if len(fr.Report.Findings) != fr.Counts.Findings {
			t.Errorf("report findings %d != counts %d", len(fr.Report.Findings), fr.Counts.Findings)
		}
	})

	t.Run("pprof-index", func(t *testing.T) {
		resp, _ := get(t, srv, "/debug/pprof/")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status = %d, want 200", resp.StatusCode)
		}
	})

	t.Run("not-found", func(t *testing.T) {
		resp, _ := get(t, srv, "/nope")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status = %d, want 404", resp.StatusCode)
		}
	})
}

// TestFindingsIsProvisional: scraping /findings must not quarantine flagged
// objects — that is the final Report's job alone.
func TestFindingsIsProvisional(t *testing.T) {
	s, rt, h := newDetectingServer(t)
	addr := drive(t, rt, h, 500)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, _ := get(t, srv, "/findings")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape %d: status %d", i, resp.StatusCode)
		}
	}
	objs := h.ObjectsOverlapping(addr, addr+1)
	if len(objs) != 1 || objs[0].Flagged {
		t.Fatalf("object flagged by provisional scrape: %+v", objs)
	}
	rt.Report()
	objs = h.ObjectsOverlapping(addr, addr+1)
	if len(objs) != 1 || !objs[0].Flagged {
		t.Fatalf("final report did not flag object: %+v", objs)
	}
}

func TestNoSourceUnavailable(t *testing.T) {
	s := diag.New(obs.NewRegistry(), "diagtest", obs.GetBuildInfo())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, path := range []string{"/hotlines", "/findings", "/timeline"} {
		resp, _ := get(t, srv, path)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s: status = %d, want 503", path, resp.StatusCode)
		}
	}
	resp, body := get(t, srv, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status = %d, want 200", resp.StatusCode)
	}
	var hl diag.Health
	if err := json.Unmarshal(body, &hl); err != nil {
		t.Fatal(err)
	}
	if hl.SourceActive {
		t.Error("source_active = true with no source")
	}
}

// TestTimelineEndpoint: /timeline renders the flight recorders as
// trace-event JSON, filters by line, rejects bad parameters, and answers 503
// for sources without flight support.
func TestTimelineEndpoint(t *testing.T) {
	s, rt, h := newDetectingServer(t)
	drive(t, rt, h, 500)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, body := get(t, srv, "/timeline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body: %s)", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type = %q, want application/json", ct)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	// Per-line filter still renders a valid document.
	hot := rt.HotLines(1)
	if len(hot) == 0 {
		t.Fatal("no hot lines")
	}
	resp, body = get(t, srv, "/timeline?line="+strconv.FormatUint(hot[0].Line, 10))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("line filter: status = %d (body: %s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("line filter: invalid JSON: %v", err)
	}

	for _, bad := range []string{"/timeline?line=xyz", "/timeline?line=-3", "/timeline?n=zz"} {
		resp, _ := get(t, srv, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", bad, resp.StatusCode)
		}
	}

	// A source that lacks FlightDump (the optional TimelineSource
	// interface) degrades to 503 rather than breaking.
	s.SetSource(plainSource{rt})
	resp, _ = get(t, srv, "/timeline")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("non-timeline source: status = %d, want 503", resp.StatusCode)
	}
}

// plainSource implements Source but not TimelineSource.
type plainSource struct{ rt *core.Runtime }

func (p plainSource) HotLines(n int) []core.LineSnapshot { return p.rt.HotLines(n) }
func (p plainSource) Provisional() *report.Report        { return p.rt.Provisional() }
func (p plainSource) LiveStats() core.Stats              { return p.rt.LiveStats() }

// TestConcurrentScrapeDuringDetection exercises every endpoint while worker
// goroutines hammer the runtime — the contract the race detector checks.
func TestConcurrentScrapeDuringDetection(t *testing.T) {
	s, rt, h := newDetectingServer(t)
	addr, err := h.AllocWithOffset(0, 64, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for tid := 1; tid <= 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			word := addr + uint64(tid%2)*8
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 64; i++ {
					rt.HandleAccess(tid, word, 8, true)
				}
			}
		}(tid)
	}
	paths := []string{"/hotlines?n=3", "/metrics", "/findings", "/healthz"}
	for round := 0; round < 8; round++ {
		for _, p := range paths {
			resp, body := get(t, srv, p)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("round %d %s: status %d", round, p, resp.StatusCode)
			}
			if strings.HasSuffix(p, "hotlines?n=3") || p == "/findings" || p == "/healthz" {
				if !json.Valid(body) {
					t.Errorf("round %d %s: invalid JSON", round, p)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

// panicSource panics on every scrape.
type panicSource struct{}

func (panicSource) HotLines(int) []core.LineSnapshot { panic("introspection exploded") }
func (panicSource) Provisional() *report.Report      { panic("report exploded") }
func (panicSource) LiveStats() core.Stats            { panic("stats exploded") }

// TestPanickingEndpointQuarantines: a panicking handler 500s, quarantines
// to 503 after the panic budget, and leaves sibling endpoints serving.
func TestPanickingEndpointQuarantines(t *testing.T) {
	s := diag.New(obs.NewRegistry(), "diagtest", obs.GetBuildInfo())
	s.SetSource(panicSource{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for i := 0; i < resilience.DefaultPanicLimit; i++ {
		resp, _ := get(t, srv, "/hotlines")
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panic %d: status = %d, want 500", i, resp.StatusCode)
		}
	}
	resp, _ := get(t, srv, "/hotlines")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-quarantine status = %d, want 503", resp.StatusCode)
	}

	resp, body := get(t, srv, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d, want 200 (sibling endpoints keep serving)", resp.StatusCode)
	}
	var hl diag.Health
	if err := json.Unmarshal(body, &hl); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, q := range hl.Quarantined {
		if q == "/hotlines" {
			found = true
		}
	}
	if !found {
		t.Errorf("healthz quarantined = %v, want /hotlines listed", hl.Quarantined)
	}

	resp, _ = get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics status = %d, want 200", resp.StatusCode)
	}
}
