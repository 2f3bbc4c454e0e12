package cmd_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestVersionFlags: every shipped binary identifies itself.
func TestVersionFlags(t *testing.T) {
	for name := range bins {
		out, err := run(t, name, "-version")
		if err != nil {
			t.Errorf("%s -version: %v\n%s", name, err, out)
			continue
		}
		if !strings.HasPrefix(out, name+" ") || !strings.Contains(out, "go1") {
			t.Errorf("%s -version output = %q, want %q prefix and a Go version", name, out, name+" ")
		}
	}
}

// startDiagRun launches predator with a live diagnostics server on an
// ephemeral port and returns the bound address once the server line is
// printed. The linger window keeps the server scrapeable after the (short)
// workload finishes; cleanup waits for the process.
func startDiagRun(t *testing.T, args ...string) string {
	t.Helper()
	full := append([]string{
		"-workload", "ww_share", "-threads", "4", "-quiet",
		"-diag-addr", "127.0.0.1:0", "-diag-linger", "30s",
	}, args...)
	cmd := exec.Command(bins["predator"], full...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "diagnostics: http://") {
			addr := strings.TrimPrefix(line, "diagnostics: http://")
			addr = strings.Fields(addr)[0]
			// Drain the rest so the child never blocks on a full pipe.
			go func() { _, _ = io.Copy(io.Discard, stdout) }()
			return addr
		}
	}
	t.Fatalf("predator never printed the diagnostics address (scan err: %v)", sc.Err())
	return ""
}

// TestPredatorDiagServe drives the whole live-diagnostics path through the
// shipped binary: run a workload with -diag-addr, scrape every endpoint,
// and render a predtop frame against the live server.
func TestPredatorDiagServe(t *testing.T) {
	// Deterministic: the ww_share workers must interleave for /findings to
	// have findings, however the host schedules goroutines.
	addr := startDiagRun(t, "-deterministic")
	client := &http.Client{Timeout: 5 * time.Second}

	get := func(path string) (int, string, []byte) {
		t.Helper()
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), body
	}

	// The ww_share run is short; by the time the diagnostics line printed
	// the server is up, and after the run the runtime stays attached
	// through the linger window. Poll /hotlines until detection state
	// appears (the workload may still be mid-run on a slow host).
	deadline := time.Now().Add(20 * time.Second)
	var hot struct {
		Count int `json:"count"`
		Lines []struct {
			Invalidations uint64 `json:"invalidations"`
			Words         []struct {
				Owner int `json:"owner"`
			} `json:"words"`
		} `json:"lines"`
		Stats struct {
			Accesses uint64 `json:"accesses"`
		} `json:"stats"`
	}
	for {
		code, ctype, body := get("/hotlines?n=5")
		switch code {
		case http.StatusServiceUnavailable:
			// The server starts before the harness constructs the runtime;
			// a scrape in that window correctly reports no source.
		case http.StatusOK:
			if !strings.HasPrefix(ctype, "application/json") {
				t.Fatalf("/hotlines content type = %q", ctype)
			}
			if err := json.Unmarshal(body, &hot); err != nil {
				t.Fatalf("/hotlines invalid JSON: %v\n%s", err, body)
			}
		default:
			t.Fatalf("/hotlines status = %d (%s)", code, body)
		}
		if hot.Count > 0 && hot.Lines[0].Invalidations > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no hot lines before deadline: %+v", hot)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if hot.Stats.Accesses == 0 || len(hot.Lines[0].Words) == 0 {
		t.Errorf("hotlines snapshot incomplete: %+v", hot)
	}

	code, ctype, body := get("/healthz")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/healthz = %d %q", code, ctype)
	}
	var health struct {
		Status       string `json:"status"`
		Tool         string `json:"tool"`
		SourceActive bool   `json:"source_active"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("/healthz invalid JSON: %v", err)
	}
	if health.Status != "ok" || health.Tool != "predator" || !health.SourceActive {
		t.Errorf("/healthz = %+v", health)
	}

	code, ctype, body = get("/metrics")
	if code != http.StatusOK || !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("/metrics = %d %q", code, ctype)
	}
	for _, want := range []string{
		"predator_accesses_total",
		"predator_build_info{",
		"predator_self_overhead_ratio",
		"go_goroutines",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	code, _, body = get("/findings")
	if code != http.StatusOK {
		t.Fatalf("/findings status = %d", code)
	}
	var findings struct {
		Counts struct {
			Findings     int `json:"findings"`
			FalseSharing int `json:"false_sharing"`
		} `json:"counts"`
	}
	if err := json.Unmarshal(body, &findings); err != nil {
		t.Fatalf("/findings invalid JSON: %v", err)
	}
	if findings.Counts.FalseSharing == 0 {
		t.Errorf("/findings counts = %+v, want detected false sharing", findings.Counts)
	}

	code, _, _ = get("/debug/pprof/")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", code)
	}

	// predtop renders one frame from the live server.
	out, err := run(t, "predtop", "-addr", addr, "-once", "-n", "5")
	if err != nil {
		t.Fatalf("predtop: %v\n%s", err, out)
	}
	for _, want := range []string{"predtop — predator", "INVAL", "WORD OWNERS"} {
		if !strings.Contains(out, want) {
			t.Errorf("predtop frame missing %q:\n%s", want, out)
		}
	}
}

// TestPredtopBadAddress: an unreachable server is a clean, prompt error.
func TestPredtopBadAddress(t *testing.T) {
	out, err := run(t, "predtop", "-addr", "127.0.0.1:1", "-once")
	if err == nil {
		t.Errorf("unreachable server accepted:\n%s", out)
	}
}

// TestPredbenchBenchJSON validates the machine-readable benchmark output.
func TestPredbenchBenchJSON(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "bench.json")
	out, err := run(t, "predbench",
		"-bench-json", outPath, "-bench-workloads", "ww_share", "-repeats", "1")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("bench output not written: %v", err)
	}
	var doc struct {
		Tool      string `json:"tool"`
		GoVersion string `json:"go_version"`
		Records   []struct {
			Experiment   string  `json:"experiment"`
			Workload     string  `json:"workload"`
			Mode         string  `json:"mode"`
			MedianNs     int64   `json:"median_ns"`
			Accesses     uint64  `json:"accesses"`
			NsPerAccess  float64 `json:"ns_per_access"`
			FalseSharing int     `json:"false_sharing"`
		} `json:"records"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	if doc.Tool != "predbench" || doc.GoVersion == "" {
		t.Errorf("doc identity = %s/%s", doc.Tool, doc.GoVersion)
	}
	if len(doc.Records) != 3 {
		t.Fatalf("records = %d, want 3 (one per mode)", len(doc.Records))
	}
	modes := map[string]bool{}
	for _, r := range doc.Records {
		modes[r.Mode] = true
		if r.Experiment != "bench" || r.Workload != "ww_share" || r.MedianNs <= 0 {
			t.Errorf("bad record: %+v", r)
		}
		if r.Mode != "Original" {
			if r.Accesses == 0 || r.NsPerAccess <= 0 || r.FalseSharing == 0 {
				t.Errorf("detector fields empty in %s record: %+v", r.Mode, r)
			}
		}
	}
	for _, want := range []string{"Original", "PREDATOR-NP", "PREDATOR"} {
		if !modes[want] {
			t.Errorf("missing mode %s (got %v)", want, modes)
		}
	}
}
