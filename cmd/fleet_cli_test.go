// End-to-end tests for fleet mode: a real predfleet process fed by real
// agent processes over loopback HTTP, including the crash-durability and
// rate-limit contracts the service advertises.
package cmd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

// fleetProc is one running predfleet process.
type fleetProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:PORT
}

// startFleet launches predfleet on a free port and waits for it to serve.
func startFleet(t *testing.T, storeDir string, extraArgs ...string) *fleetProc {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0", "-store", storeDir,
		"-tokens", "acme=s3cret,rival=r1val",
	}, extraArgs...)
	cmd := exec.Command(bins["predfleet"], args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting predfleet: %v", err)
	}
	fp := &fleetProc{cmd: cmd}
	t.Cleanup(func() {
		if fp.cmd.Process != nil {
			_ = fp.cmd.Process.Kill()
			_, _ = fp.cmd.Process.Wait()
		}
	})

	// The process prints "predfleet: serving on http://ADDR (...)" once up.
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("predfleet exited before serving")
			}
			if i := strings.Index(line, "serving on http://"); i >= 0 {
				rest := line[i+len("serving on "):]
				fp.base = strings.Fields(rest)[0]
				// Keep draining so the child never blocks on a full pipe.
				go func() {
					for range lines {
					}
				}()
				return fp
			}
		case <-deadline:
			t.Fatal("predfleet did not start serving within 10s")
		}
	}
}

// fleetGet performs an authenticated GET and returns status and body.
func fleetGet(t *testing.T, base, path, token string) (int, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, base+path, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// runAgainstFleet runs predator against the fleet service and asserts the
// run was exported (the CLI prints a fleet summary line when it was).
func runAgainstFleet(t *testing.T, base, runID string, extra ...string) string {
	t.Helper()
	args := append([]string{
		"-workload", "histogram", "-quiet",
		"-fleet-addr", strings.TrimPrefix(base, "http://"),
		"-fleet-token", "s3cret", "-fleet-project", "demo", "-fleet-run", runID,
	}, extra...)
	out, err := run(t, "predator", args...)
	if err != nil {
		t.Fatalf("predator %s: %v\n%s", runID, err, out)
	}
	if !strings.Contains(out, "fleet: run "+runID) {
		t.Fatalf("predator did not report its fleet export:\n%s", out)
	}
	return out
}

func TestFleetEndToEndIngestAndDiff(t *testing.T) {
	fp := startFleet(t, t.TempDir())

	// Two concurrent agents: the buggy baseline and the fixed candidate.
	var wg sync.WaitGroup
	for _, r := range []struct{ id, variant string }{
		{"run-buggy", ""}, {"run-fixed", "-fixed"},
	} {
		wg.Add(1)
		go func(id, variant string) {
			defer wg.Done()
			if variant != "" {
				runAgainstFleet(t, fp.base, id, variant)
			} else {
				runAgainstFleet(t, fp.base, id)
			}
		}(r.id, r.variant)
	}
	wg.Wait()

	// Both runs landed under the project.
	code, body := fleetGet(t, fp.base, "/api/v1/runs?project=demo", "s3cret")
	var runs struct {
		Count int `json:"count"`
		Runs  []struct {
			ID     string `json:"id"`
			Tool   string `json:"tool"`
			Counts struct {
				Findings int `json:"findings"`
			} `json:"counts"`
		} `json:"runs"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &runs) != nil || runs.Count != 2 {
		t.Fatalf("/runs = %d count=%d (%s)", code, runs.Count, body)
	}
	byID := map[string]int{}
	for _, r := range runs.Runs {
		if r.Tool != "predator" {
			t.Fatalf("run %s tool = %q", r.ID, r.Tool)
		}
		byID[r.ID] = r.Counts.Findings
	}
	if byID["run-buggy"] == 0 || byID["run-fixed"] != 0 {
		t.Fatalf("finding counts = %v, want buggy>0 and fixed==0", byID)
	}

	// The diff reports the histogram bug as resolved, nothing new.
	code, body = fleetGet(t, fp.base,
		"/api/v1/diff?project=demo&base=run-buggy&head=run-fixed", "s3cret")
	var delta struct {
		New       []json.RawMessage `json:"new_findings"`
		Resolved  []json.RawMessage `json:"resolved_findings"`
		Regressed bool              `json:"regressed"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &delta) != nil {
		t.Fatalf("/diff = %d (%s)", code, body)
	}
	if len(delta.Resolved) == 0 || len(delta.New) != 0 || delta.Regressed {
		t.Fatalf("diff = %d new, %d resolved, regressed=%v (%s)",
			len(delta.New), len(delta.Resolved), delta.Regressed, body)
	}
	// Reversed, the same pair is a regression.
	code, body = fleetGet(t, fp.base,
		"/api/v1/diff?project=demo&base=run-fixed&head=run-buggy", "s3cret")
	if code != http.StatusOK || json.Unmarshal(body, &delta) != nil || !delta.Regressed || len(delta.New) == 0 {
		t.Fatalf("reverse diff = %d regressed=%v (%s)", code, delta.Regressed, body)
	}

	// The service's own telemetry counted the ingestion.
	code, body = fleetGet(t, fp.base, "/metrics", "")
	if code != http.StatusOK || !strings.Contains(string(body), "predfleet_ingest_total") {
		t.Fatalf("/metrics = %d, predfleet_ingest_total missing", code)
	}

	// predtop's fleet mode renders the aggregated view end to end.
	out, err := run(t, "predtop",
		"-fleet", strings.TrimPrefix(fp.base, "http://"), "-token", "s3cret", "-once")
	if err != nil {
		t.Fatalf("predtop -fleet: %v\n%s", err, out)
	}
	if !strings.Contains(out, "predtop — predfleet") || !strings.Contains(out, "ORIGIN") {
		t.Fatalf("predtop fleet output:\n%s", out)
	}
}

func TestFleetKillRestartKeepsAckedRuns(t *testing.T) {
	storeDir := t.TempDir()
	fp := startFleet(t, storeDir)

	// The agent's export is acked (the CLI summary says sent>0), so the run
	// is fsynced server-side before this returns.
	out := runAgainstFleet(t, fp.base, "run-durable")
	if !strings.Contains(out, "sent=") || strings.Contains(out, "sent=0") {
		t.Fatalf("export not acked:\n%s", out)
	}

	// SIGKILL: no graceful shutdown, no store.Close.
	if err := fp.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	_, _ = fp.cmd.Process.Wait()

	// A fresh process over the same store must still have the acked run.
	fp2 := startFleet(t, storeDir)
	code, body := fleetGet(t, fp2.base, "/api/v1/runs?project=demo", "s3cret")
	if code != http.StatusOK || !bytes.Contains(body, []byte("run-durable")) {
		t.Fatalf("acked run lost across kill-restart: %d (%s)", code, body)
	}
	code, body = fleetGet(t, fp2.base, "/api/v1/findings?project=demo", "s3cret")
	var fs struct {
		Count int `json:"count"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &fs) != nil || fs.Count == 0 {
		t.Fatalf("findings after restart = %d count=%d", code, fs.Count)
	}
}

func TestFleetRateLimitShedsBurst(t *testing.T) {
	fp := startFleet(t, t.TempDir(), "-rate", "1", "-burst", "2")

	post := func(token, runID, project string) (int, string) {
		payload := fmt.Sprintf(
			`{"run":{"id":%q,"project":%q,"agent":"burst-test","tool":"test"},"reports":{}}`,
			runID, project)
		req, _ := http.NewRequest(http.MethodPost,
			fp.base+"/api/v1/ingest/findings", strings.NewReader(payload))
		req.Header.Set("Authorization", "Bearer "+token)
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	accepted, limited := 0, 0
	var retryAfter string
	for i := 0; i < 6; i++ {
		code, ra := post("s3cret", fmt.Sprintf("burst-%d", i), "demo")
		switch code {
		case http.StatusCreated:
			accepted++
		case http.StatusTooManyRequests:
			limited++
			retryAfter = ra
		default:
			t.Fatalf("burst post %d = %d", i, code)
		}
	}
	if accepted == 0 || limited == 0 {
		t.Fatalf("burst of 6: %d accepted, %d limited — want both nonzero", accepted, limited)
	}
	if retryAfter == "" || retryAfter == "0" {
		t.Fatalf("429 without a usable Retry-After (%q)", retryAfter)
	}
	// A different tenant ingests normally while acme is being shed.
	if code, _ := post("r1val", "calm-run", "other"); code != http.StatusCreated {
		t.Fatalf("other tenant during burst = %d, want 201", code)
	}
	// The shed tenant's service metric recorded it.
	_, body := fleetGet(t, fp.base, "/metrics", "")
	if !strings.Contains(string(body), "predfleet_rate_limited_total") {
		t.Fatalf("rate-limit metric missing:\n%s", body)
	}
}

// TestFleetPredtopNarrowWidth drives the viewer at 40 columns: every line
// fits, truncation is marked, nothing wraps.
func TestFleetPredtopNarrowWidth(t *testing.T) {
	fp := startFleet(t, t.TempDir())
	runAgainstFleet(t, fp.base, "narrow-run")
	out, err := run(t, "predtop",
		"-fleet", strings.TrimPrefix(fp.base, "http://"), "-token", "s3cret",
		"-once", "-width", "40")
	if err != nil {
		t.Fatalf("predtop -width 40: %v\n%s", err, out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if n := len([]rune(line)); n > 40 {
			t.Fatalf("line exceeds 40 cells (%d): %q", n, line)
		}
	}
	if !strings.Contains(out, "…") {
		t.Fatalf("no truncation markers at width 40:\n%s", out)
	}
}
