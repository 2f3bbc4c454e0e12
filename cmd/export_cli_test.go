package cmd_test

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExportersAllCLIs runs each agent CLI with all four file exporters and
// checks every file's schema, then checks that the CLI's flag names and
// defaults still match testdata/flags.
func TestExportersAllCLIs(t *testing.T) {
	trace := recordTrace(t, "histogram")
	rows := []struct {
		bin  string
		args []string
	}{
		{"predator", []string{"-workload", "histogram", "-threads", "4"}},
		{"predbench", []string{"-experiment", "fig5", "-repeats", "1", "-threads", "4"}},
		{"predreplay", []string{"-replay", trace}},
	}
	for _, row := range rows {
		t.Run(row.bin, func(t *testing.T) {
			dir := t.TempDir()
			metrics := filepath.Join(dir, "metrics.prom")
			events := filepath.Join(dir, "events.jsonl")
			timeline := filepath.Join(dir, "timeline.json")
			spansOut := filepath.Join(dir, "spans.json")
			out, err := run(t, row.bin, append(row.args, "-metrics-out", metrics, "-events-out", events,
				"-timeline-out", timeline, "-spans-out", spansOut)...)
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}

			if _, ok := readProm(t, metrics)["predator_accesses_total"]; !ok {
				t.Error("metrics snapshot has no predator_accesses_total")
			}
			if len(readEvents(t, events)) == 0 {
				t.Error("event file is empty")
			}

			var tl struct {
				TraceEvents []struct {
					Ph   string `json:"ph"`
					Args struct {
						Name string `json:"name"`
					} `json:"args"`
				} `json:"traceEvents"`
			}
			readJSON(t, timeline, &tl)
			phaseTracks := 0
			for _, ev := range tl.TraceEvents {
				if ev.Ph == "M" && ev.Args.Name == "detector phases" {
					phaseTracks++
				}
			}
			if phaseTracks != 1 {
				t.Errorf("timeline has %d detector phases tracks, want 1", phaseTracks)
			}

			var otlp struct {
				ResourceSpans []struct {
					ScopeSpans []struct {
						Spans []struct {
							Name       string `json:"name"`
							Parent     string `json:"parentSpanId"`
							Attributes []struct {
								Key   string `json:"key"`
								Value struct {
									StringValue string `json:"stringValue"`
								} `json:"value"`
							} `json:"attributes"`
						} `json:"spans"`
					} `json:"scopeSpans"`
				} `json:"resourceSpans"`
			}
			readJSON(t, spansOut, &otlp)
			var rootTools []string
			for _, rs := range otlp.ResourceSpans {
				for _, ss := range rs.ScopeSpans {
					for _, sp := range ss.Spans {
						if sp.Name != "cli.run" || sp.Parent != "" {
							continue
						}
						tool := ""
						for _, kv := range sp.Attributes {
							if kv.Key == "tool" {
								tool = kv.Value.StringValue
							}
						}
						rootTools = append(rootTools, tool)
					}
				}
			}
			if len(rootTools) != 1 || rootTools[0] != row.bin {
				t.Errorf("parentless cli.run spans have tool labels %q, want exactly [%s]", rootTools, row.bin)
			}

			golden := filepath.Join("testdata", "flags", row.bin+".txt")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got := flagDefaults(t, row.bin); got != string(want) {
				t.Errorf("%s -h flags differ from %s:\ngot:\n%s\nwant:\n%s", row.bin, golden, got, want)
			}
		})
	}
}

// TestErrorExitFlushesExports: a run that fails part way still leaves a
// metrics snapshot and an event file of whole JSON lines.
func TestErrorExitFlushesExports(t *testing.T) {
	damaged := recordTrace(t, "histogram")
	f, err := os.OpenFile(damaged, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte(strings.Repeat("\xff", 64)), st.Size()/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rows := []struct {
		bin  string
		args []string
	}{
		{"predreplay", []string{"-replay", damaged}},
		{"predbench", []string{"-bench-json", filepath.Join(t.TempDir(), "bench.json"),
			"-bench-workloads", "histogram,no_such_workload", "-repeats", "1", "-bench-deterministic"}},
	}
	for _, row := range rows {
		t.Run(row.bin, func(t *testing.T) {
			dir := t.TempDir()
			metrics := filepath.Join(dir, "metrics.prom")
			events := filepath.Join(dir, "events.jsonl")
			out, err := run(t, row.bin, append(row.args, "-metrics-out", metrics, "-events-out", events)...)
			if err == nil {
				t.Fatalf("%s exited 0, want an error exit:\n%s", row.bin, out)
			}
			if _, err := os.Stat(metrics); err != nil {
				t.Errorf("no metrics snapshot after the error exit: %v", err)
			}
			if len(readEvents(t, events)) == 0 {
				t.Error("no events flushed before the error exit")
			}
		})
	}
}

// TestFailedExportWriteExits1: every agent CLI exits 1, naming the file,
// when an export cannot be written.
func TestFailedExportWriteExits1(t *testing.T) {
	trace := recordTrace(t, "ww_share")
	metrics := filepath.Join(t.TempDir(), "missing", "metrics.prom")
	for bin, args := range map[string][]string{
		"predator":   {"-workload", "ww_share", "-threads", "4", "-quiet"},
		"predbench":  {"-experiment", "fig5", "-repeats", "1", "-threads", "4"},
		"predreplay": {"-replay", trace},
	} {
		out, err := run(t, bin, append(args, "-metrics-out", metrics)...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(out, "writing "+metrics) {
			t.Errorf("%s with an unwritable -metrics-out: %v, want exit 1 naming the file:\n%s", bin, err, out)
		}
	}
}

// recordTrace records workload's access stream with predreplay and returns
// the trace path.
func recordTrace(t *testing.T, workload string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), workload+".trace")
	if out, err := run(t, "predreplay", "-record", workload, "-out", path, "-threads", "4"); err != nil {
		t.Fatalf("record: %v\n%s", err, out)
	}
	return path
}

var (
	// promSample is the "name[{labels}]" part of a Prometheus sample line.
	promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})?$`)
	// flagDefault is the "(default X)" suffix flag.PrintDefaults appends.
	flagDefault = regexp.MustCompile(`\(default ([^()]*)\)$`)
)

// readProm parses a Prometheus text snapshot into its sample values. Every
// line must be a # HELP or # TYPE comment or a "name[{labels}] value"
// sample.
func readProm(t *testing.T, path string) map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	values := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil || !promSample.MatchString(line[:i]) {
			t.Fatalf("%s: malformed sample line %q", path, line)
		}
		values[line[:i]] = v
	}
	return values
}

// readEvents checks that every line of a JSON-lines event file parses and
// that seq strictly increases, and counts the events of each type.
func readEvents(t *testing.T, path string) map[string]int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	if len(raw) == 0 {
		return types
	}
	var last uint64
	for i, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		var ev struct {
			Seq  uint64 `json:"seq"`
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("%s line %d: %v: %q", path, i+1, err, line)
		}
		if ev.Seq <= last {
			t.Fatalf("%s line %d: seq %d after %d", path, i+1, ev.Seq, last)
		}
		last = ev.Seq
		types[ev.Type]++
	}
	return types
}

// readJSON decodes a JSON file into v.
func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// flagDefaults renders a binary's -h listing as one "-name [type] [=
// default]" line per flag, leaving out the usage text.
func flagDefaults(t *testing.T, bin string) string {
	t.Helper()
	out, err := run(t, bin, "-h")
	if err != nil {
		t.Fatalf("%s -h: %v\n%s", bin, err, out)
	}
	var flags []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  -") {
			flags = append(flags, strings.TrimSpace(line))
		} else if m := flagDefault.FindStringSubmatch(line); m != nil && len(flags) > 0 {
			flags[len(flags)-1] += " = " + m[1]
		}
	}
	return strings.Join(flags, "\n") + "\n"
}
