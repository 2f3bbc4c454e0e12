package predator_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"predator/internal/report"
)

// TestE2EFindingToSpan follows the span-propagation path through the real
// binary: predator runs a workload with -json, -spans-out and -timeline-out
// on, its stdout decodes as the report alone, and every finding's
// provenance span_id names the report.collect span in the OTLP file.
func TestE2EFindingToSpan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "predator")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/predator").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/predator: %v\n%s", err, out)
	}
	spansPath := filepath.Join(tmp, "spans.json")
	cmd := exec.Command(bin, "-workload", "histogram", "-deterministic", "-json",
		"-spans-out", spansPath, "-timeline-out", filepath.Join(tmp, "timeline.json"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("predator: %v\n%s", err, stderr.Bytes())
	}

	// Status lines go to stderr: stdout must be the report and nothing else.
	var rep report.JSONReport
	if err := json.Unmarshal(stdout, &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v\n%s", err, stdout)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("histogram reported no findings")
	}

	raw, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					SpanID string `json:"spanId"`
					Name   string `json:"name"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", spansPath, err)
	}
	collect := map[string]bool{}
	for _, rs := range doc.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				if sp.Name == "report.collect" {
					collect[sp.SpanID] = true
				}
			}
		}
	}
	for i, f := range rep.Findings {
		if f.Provenance == nil || !collect[f.Provenance.SpanID] {
			t.Errorf("finding %d (%#x): provenance %+v names no report.collect span of %v",
				i, f.SpanStart, f.Provenance, collect)
		}
	}
}
