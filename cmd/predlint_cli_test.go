package cmd_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantComment strips the analysistest `// want ...` annotations so the golden
// sources double as end-to-end fixtures.
var wantComment = regexp.MustCompile(`\s*// want .*`)

// writeLregModule materializes the Figure 6 golden source (or its padded
// variant) as a standalone module in a temp dir and returns the dir.
func writeLregModule(t *testing.T, variant string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "internal", "staticfs", "testdata", "src", variant, "lreg.go"))
	if err != nil {
		t.Fatal(err)
	}
	clean := wantComment.ReplaceAll(src, nil)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module lregmod\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "lreg.go"), clean, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runIn executes a built binary in dir and returns combined output.
func runIn(t *testing.T, dir, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bins[bin], args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestPredlintFlagsFigure6: the linter flags the paper's linear_regression
// pattern in a fresh module and exits 1.
func TestPredlintFlagsFigure6(t *testing.T) {
	dir := writeLregModule(t, "lreg")
	out, err := runIn(t, dir, "predlint", "./...")
	if err == nil {
		t.Fatalf("expected exit 1 on the Figure 6 pattern, got success:\n%s", out)
	}
	for _, want := range []string{"sharedindex", "Figure 6", "pad elements to 128 bytes", "fix:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestPredlintPaddedClean: the padded variant reports nothing and exits 0.
func TestPredlintPaddedClean(t *testing.T) {
	dir := writeLregModule(t, "lreg_padded")
	out, err := runIn(t, dir, "predlint", "./...")
	if err != nil {
		t.Fatalf("padded variant should be clean: %v\n%s", err, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("padded variant produced findings:\n%s", out)
	}
}

// predlintJSON mirrors predlint's -json schema for decoding in tests.
type predlintJSON struct {
	LineSize uint64 `json:"line_size"`
	Findings []struct {
		Analyzer string `json:"analyzer"`
		Package  string `json:"package"`
		Position string `json:"position"`
		Subject  string `json:"subject"`
		Message  string `json:"message"`
		Fixes    []struct {
			Message string `json:"message"`
			Edits   []struct {
				File    string `json:"file"`
				Offset  int    `json:"offset"`
				End     int    `json:"end"`
				NewText string `json:"new_text"`
			} `json:"edits"`
		} `json:"fixes"`
		Confirmed bool   `json:"confirmed_at_runtime"`
		Evidence  string `json:"runtime_evidence"`
	} `json:"findings"`
	Summary *struct {
		Confirmed   int      `json:"confirmed"`
		Unexercised int      `json:"unexercised"`
		RuntimeOnly []string `json:"runtime_only"`
	} `json:"cross_check"`
}

// TestPredlintJSONSchema: -json emits the documented machine-readable shape,
// including the offset-resolved padding fix.
func TestPredlintJSONSchema(t *testing.T) {
	dir := writeLregModule(t, "lreg")
	out, _ := runIn(t, dir, "predlint", "-json", "./...")
	var got predlintJSON
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if got.LineSize != 64 {
		t.Errorf("line_size = %d, want 64", got.LineSize)
	}
	if len(got.Findings) != 1 {
		t.Fatalf("findings = %d, want 1:\n%s", len(got.Findings), out)
	}
	f := got.Findings[0]
	if f.Analyzer != "sharedindex" || f.Subject != "args" {
		t.Errorf("finding = %s/%s, want sharedindex/args", f.Analyzer, f.Subject)
	}
	if !strings.Contains(f.Position, "lreg.go:") {
		t.Errorf("position %q does not point into lreg.go", f.Position)
	}
	if len(f.Fixes) == 0 || len(f.Fixes[0].Edits) == 0 {
		t.Fatalf("finding carries no resolved fix edits:\n%s", out)
	}
	e := f.Fixes[0].Edits[0]
	if !strings.Contains(e.NewText, "[80]byte") || e.Offset <= 0 || e.End != e.Offset {
		t.Errorf("fix edit = %+v, want an [80]byte insertion", e)
	}
}

// TestPredlintCrossCheck: a runtime report whose object callsite lands in the
// flagged file upgrades the finding to "confirmed at runtime".
func TestPredlintCrossCheck(t *testing.T) {
	dir := writeLregModule(t, "lreg")
	rep := `{
		"line_size": 64,
		"findings": [{
			"source": "observed",
			"sharing": "false",
			"span_start": 0, "span_end": 64,
			"accesses": 9000, "reads": 3000, "writes": 6000, "invalidations": 1200,
			"object": {"start": 4096, "size": 384, "label": "lreg workers", "callsite": "lreg.go:12"}
		}],
		"problems": [{
			"summary": "heap object workq: 500 invalidations",
			"sharing": "false", "sources": ["observed"],
			"total_invalidations": 500, "findings": 1, "predicted_only": false,
			"object": {"start": 8192, "size": 64, "label": "workq", "callsite": "queue.go:7"}
		}]
	}`
	repPath := filepath.Join(dir, "run.json")
	if err := os.WriteFile(repPath, []byte(rep), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runIn(t, dir, "predlint", "-report", "run.json", "./...")
	if err == nil {
		t.Fatalf("expected exit 1, got success:\n%s", out)
	}
	for _, want := range []string{
		"confirmed at runtime",
		"cross-check: 1 confirmed at runtime, 0 never exercised",
		"runtime-only (no static candidate): heap object workq",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestPredlintVetTool: the real `go vet -vettool=predlint` protocol — version
// handshake, flag discovery, per-package vet.cfg — flags the Figure 6 module.
func TestPredlintVetTool(t *testing.T) {
	dir := writeLregModule(t, "lreg")
	cmd := exec.Command("go", "vet", "-vettool="+bins["predlint"], "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool should fail on the Figure 6 pattern:\n%s", out)
	}
	if !strings.Contains(string(out), "pad elements to 128 bytes") {
		t.Errorf("vet output missing the sharedindex diagnostic:\n%s", out)
	}
}

// TestPredlintFixRoundTrip: -fix applies the padding in place, after which a
// second run reports the module clean.
func TestPredlintFixRoundTrip(t *testing.T) {
	dir := writeLregModule(t, "lreg")
	out, err := runIn(t, dir, "predlint", "-fix", "./...")
	if err == nil {
		t.Fatalf("first -fix run should still exit 1:\n%s", out)
	}
	if !strings.Contains(out, "applied 1 fixes") {
		t.Errorf("missing fix-application notice:\n%s", out)
	}
	out, err = runIn(t, dir, "predlint", "./...")
	if err != nil {
		t.Fatalf("module should be clean after -fix: %v\n%s", err, out)
	}
	src, err := os.ReadFile(filepath.Join(dir, "lreg.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "[80]byte") {
		t.Errorf("-fix did not insert the pad:\n%s", src)
	}
}

// TestBuiltinElideManifestFresh: the elision manifest the harness embeds
// and binds by default is byte for byte what predlint -elide-out writes for
// the in-tree workloads now. A stale file:line could bind a different
// allocation and hide a finding.
func TestBuiltinElideManifestFresh(t *testing.T) {
	fresh := filepath.Join(t.TempDir(), "elide.json")
	out, err := runIn(t, "..", "predlint", "-elide-out", fresh, "./internal/workloads/...")
	if err != nil {
		t.Fatalf("predlint over the workloads: %v\n%s", err, out)
	}
	want, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "internal", "harness", "elide_manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("internal/harness/elide_manifest.json is stale; regenerate it with go generate ./internal/harness\n--- committed:\n%s\n--- fresh:\n%s", got, want)
	}
}
