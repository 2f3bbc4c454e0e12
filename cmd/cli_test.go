// Package cmd_test smoke-tests the three command-line tools end to end:
// each binary is built once and driven through its primary flows, asserting
// on real stdout. These are the "does the shipped tool actually work"
// checks that unit tests of the underlying packages cannot give.
package cmd_test

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"predator/internal/trace"
)

// binaries built once for the whole package.
var bins = map[string]string{}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "predator-cli")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	for _, name := range []string{"predator", "predbench", "predreplay", "predtop", "predlint"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./"+name)
		cmd.Dir = "."
		if b, err := cmd.CombinedOutput(); err != nil {
			panic(name + ": " + string(b))
		}
		bins[name] = out
	}
	os.Exit(m.Run())
}

// run executes a built binary and returns combined output.
func run(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bins[bin], args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestPredatorList(t *testing.T) {
	out, err := run(t, "predator", "-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"histogram", "linear_regression", "streamcluster",
		"mysql", "boost", "ww_share", "jvm_cardtable"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q", want)
		}
	}
}

func TestPredatorDetectsAndSuggests(t *testing.T) {
	out, err := run(t, "predator", "-workload", "histogram", "-suggest")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{
		"false sharing problem(s) detected",
		"FALSE SHARING HEAP OBJECT",
		"SUGGESTED FIX",
		"pad each thread's region",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "0 false sharing problem(s)") {
		t.Error("histogram bug not detected via CLI")
	}
}

func TestPredatorFixedVariantClean(t *testing.T) {
	out, err := run(t, "predator", "-workload", "histogram", "-fixed", "-quiet")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "0 false sharing problem(s)") {
		t.Errorf("fixed variant not clean:\n%s", out)
	}
}

func TestPredatorDeterministicReproducible(t *testing.T) {
	args := []string{"-workload", "ww_share", "-deterministic", "-quiet", "-threads", "4"}
	a, err := run(t, "predator", args...)
	if err != nil {
		t.Fatalf("%v\n%s", err, a)
	}
	b, err := run(t, "predator", args...)
	if err != nil {
		t.Fatalf("%v\n%s", err, b)
	}
	// The accesses= line (second line) must match up to the wall-clock
	// suffix (total=... is timing, not detection state).
	stats := func(out string) string {
		lines := strings.Split(out, "\n")
		if len(lines) < 2 {
			return out
		}
		return strings.Split(lines[1], " total=")[0]
	}
	if stats(a) != stats(b) || !strings.Contains(stats(a), "accesses=") {
		t.Errorf("deterministic runs differ:\n%s\nvs\n%s", a, b)
	}
}

func TestPredatorBadFlags(t *testing.T) {
	if out, err := run(t, "predator", "-workload", "no_such"); err == nil {
		t.Errorf("unknown workload accepted:\n%s", out)
	}
	if out, err := run(t, "predator", "-workload", "histogram", "-mode", "bogus"); err == nil {
		t.Errorf("unknown mode accepted:\n%s", out)
	}
}

func TestPredbenchSingleExperiments(t *testing.T) {
	out, err := run(t, "predbench", "-experiment", "fig2", "-repeats", "1")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "Offset=24") || !strings.Contains(out, "Offset=56") {
		t.Errorf("fig2 output:\n%s", out)
	}
	out, err = run(t, "predbench", "-experiment", "fig5", "-repeats", "1")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "Word level information") {
		t.Errorf("fig5 output:\n%s", out)
	}
}

func TestPredbenchUnknownExperiment(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "fig99"},
		// -bench-workloads selects the -bench-json sweep's workloads; on
		// its own it must not fall through to -experiment all.
		{"-bench-workloads", "mysql"},
	} {
		out, err := run(t, "predbench", args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("predbench %v: err = %v, want exit 2:\n%s", args, err, out)
		}
	}
}

func TestPredreplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "ww.trace")
	out, err := run(t, "predreplay", "-record", "ww_share", "-out", tracePath, "-threads", "4", "-deterministic")
	if err != nil {
		t.Fatalf("record: %v\n%s", err, out)
	}
	if !strings.Contains(out, "recorded ww_share") {
		t.Errorf("record output:\n%s", out)
	}
	out, err = run(t, "predreplay", "-replay", tracePath)
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	if !strings.Contains(out, "false sharing problem(s)") ||
		strings.Contains(out, "0 false sharing problem(s)") {
		t.Errorf("replay lost the sharing:\n%s", out)
	}
	// The recording names every thread that accessed or allocated.
	if threads := recordedThreads(t, tracePath); !strings.Contains(out, "; "+strconv.Itoa(threads)+" threads named") {
		t.Errorf("replay of a recording with %d threads:\n%s", threads, out)
	}
	// Replay with an impossible threshold: clean.
	out, err = run(t, "predreplay", "-replay", tracePath, "-report-threshold", "99999999")
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0 false sharing problem(s)") {
		t.Errorf("threshold ignored on replay:\n%s", out)
	}
}

// recordedThreads counts the distinct thread ids of a trace's access and
// allocation records.
func recordedThreads(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	tids := map[int32]bool{}
	for {
		e, err := r.Next()
		if err == io.EOF {
			return len(tids)
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.Op == trace.OpRead || e.Op == trace.OpWrite || e.Op == trace.OpAlloc {
			tids[e.TID] = true
		}
	}
}

func TestPredreplayBadInputs(t *testing.T) {
	if out, err := run(t, "predreplay", "-record", "x", "-replay", "y"); err == nil {
		t.Errorf("record+replay accepted:\n%s", out)
	}
	if out, err := run(t, "predreplay", "-replay", "/no/such/file"); err == nil {
		t.Errorf("missing trace accepted:\n%s", out)
	}
	if out, err := run(t, "predreplay", "-record", "no_such_workload", "-out", filepath.Join(t.TempDir(), "x")); err == nil {
		t.Errorf("unknown workload accepted:\n%s", out)
	}
}

func TestPredatorJSONOutput(t *testing.T) {
	out, err := run(t, "predator", "-workload", "ww_share", "-threads", "4", "-json")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// JSON starts after the two summary lines.
	idx := strings.Index(out, "{")
	if idx < 0 {
		t.Fatalf("no JSON in output:\n%s", out)
	}
	var rep struct {
		LineSize uint64 `json:"line_size"`
		Findings []struct {
			Sharing string `json:"sharing"`
		} `json:"findings"`
		Problems []struct {
			Summary string `json:"summary"`
		} `json:"problems"`
	}
	if err := json.Unmarshal([]byte(out[idx:]), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out[idx:])
	}
	if rep.LineSize != 64 || len(rep.Findings) == 0 || len(rep.Problems) == 0 {
		t.Errorf("json report = %+v", rep)
	}
}

func TestExamplesRun(t *testing.T) {
	// Each example is a runnable main; smoke them via `go run` and check
	// for their headline output.
	cases := []struct {
		dir  string
		want string
	}{
		{"quickstart", "false sharing: 1"},
		{"biglines", "predicted findings: 1"},
		{"fixadvice", "pad per-thread slots"},
		{"vmdetect", "false sharing problems: 1"},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) {
			cmd := exec.Command("go", "run", "./examples/"+c.dir)
			cmd.Dir = ".."
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("example %s output missing %q:\n%s", c.dir, c.want, out)
			}
		})
	}
}

// TestPredatorMetricsAndEventsExport checks that a detection run's metrics
// and spans record each detector lifecycle fact: allocation, promotion
// (§2.4.1), invalidations (§2.3.1), hot pairs (§3.3), virtual lines and
// their verification (§3.4), the worker threads and the report's findings.
func TestPredatorMetricsAndEventsExport(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.prom")
	spansOut := filepath.Join(dir, "spans.json")
	out, err := run(t, "predator", "-workload", "histogram", "-quiet", "-deterministic",
		"-metrics-out", metrics, "-spans-out", spansOut)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}

	// The metrics snapshot must be valid Prometheus text format, and the
	// contract metrics must be present with non-zero values where the
	// workload guarantees activity.
	values := readProm(t, metrics)
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"predator_accesses_total",
		"predator_allocs_total",
		"predator_track_promotions_total",
		"predator_invalidations_total",
		"predator_tracked_lines",
		"predator_hot_pairs_total",
		"predator_virtual_lines",
	} {
		v, ok := values[name]
		if !ok {
			t.Errorf("metrics missing %s:\n%s", name, raw)
			continue
		}
		if v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
		if !strings.Contains(string(raw), "# TYPE "+name+" ") {
			t.Errorf("metrics missing TYPE comment for %s", name)
		}
	}

	// Span attributes, summed over the spans of each name.
	sums := map[string]uint64{}
	for _, sp := range readSpans(t, spansOut) {
		for _, kv := range sp.Attributes {
			if kv.Value.IntValue != "" {
				n, err := strconv.ParseUint(kv.Value.IntValue, 10, 64)
				if err != nil {
					t.Fatalf("%s %s: %v", sp.Name, kv.Key, err)
				}
				sums[sp.Name+" "+kv.Key] += n
			}
		}
	}
	for _, want := range []string{
		"harness.parallel threads",
		"predict.search hot_pairs",
		"report.collect findings",
		"report.collect verified",
	} {
		if sums[want] == 0 {
			t.Errorf("span attribute %s = 0, want > 0 (attributes: %v)", want, sums)
		}
	}
}

func TestPredreplayExportsObservability(t *testing.T) {
	tracePath := recordTrace(t, "histogram")
	dir := t.TempDir()
	metrics := filepath.Join(dir, "replay.prom")
	out, err := run(t, "predreplay", "-replay", tracePath, "-metrics-out", metrics)
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	if !strings.Contains(out, "invalidations=") {
		t.Errorf("replay stats line missing invalidations:\n%s", out)
	}
	values := readProm(t, metrics)
	for _, name := range []string{"predator_accesses_total", "predator_allocs_total"} {
		if values[name] <= 0 {
			t.Errorf("replay metrics: %s = %v, want > 0 (heap not observed?)", name, values[name])
		}
	}
}
