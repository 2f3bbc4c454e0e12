package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"predator/internal/harness"
	"predator/internal/obs"
)

// BenchRecord is one workload × mode measurement in the machine-readable
// benchmark output (predbench -bench-json). Timing fields are medians over
// Repeats runs; detector fields come from the last run.
type BenchRecord struct {
	Experiment string `json:"experiment"` // always "bench"
	Workload   string `json:"workload"`
	Suite      string `json:"suite"`
	Mode       string `json:"mode"` // Original | PREDATOR-NP | PREDATOR
	Threads    int    `json:"threads"`
	Scale      int    `json:"scale"`
	Repeats    int    `json:"repeats"`

	MedianNs int64 `json:"median_ns"` // median workload wall time

	// Detector-side measurements; zero in Original mode (no runtime).
	Accesses       uint64  `json:"accesses,omitempty"`
	AccessesPerSec float64 `json:"accesses_per_sec,omitempty"`
	NsPerAccess    float64 `json:"ns_per_access,omitempty"`
	TrackedLines   int     `json:"tracked_lines,omitempty"`
	VirtualLines   int     `json:"virtual_lines,omitempty"`
	Invalidations  uint64  `json:"invalidations,omitempty"`
	Findings       int     `json:"findings,omitempty"`
	FalseSharing   int     `json:"false_sharing,omitempty"`
	Elided         uint64  `json:"elided,omitempty"` // accesses skipped by the static elision fast path
}

// BenchDoc is the top-level -bench-json document: build identity, the
// sweep's configuration, and one record per workload × mode.
type BenchDoc struct {
	Tool      string        `json:"tool"`
	Version   string        `json:"version"`
	GoVersion string        `json:"go_version"`
	Revision  string        `json:"revision,omitempty"`
	Threads   int           `json:"threads"`
	Scale     int           `json:"scale"`
	Repeats   int           `json:"repeats"`
	Records   []BenchRecord `json:"records"`
}

// benchModes is the paper's Figure 7 legend.
var benchModes = []harness.Mode{harness.ModeNative, harness.ModeDetect, harness.ModePredict}

// Bench measures each workload under Original / PREDATOR-NP / PREDATOR and
// returns the machine-readable document. Unknown workload names fail fast.
func Bench(cfg Config, workloads []string) (*BenchDoc, error) {
	build := obs.GetBuildInfo()
	doc := &BenchDoc{
		Tool:      "predbench",
		Version:   build.Version,
		GoVersion: build.GoVersion,
		Revision:  build.ShortRevision(),
		Threads:   cfg.Threads,
		Scale:     cfg.Scale,
		Repeats:   cfg.Repeats,
	}
	for _, name := range workloads {
		w, ok := harness.Get(name)
		if !ok {
			return nil, fmt.Errorf("eval: unknown workload %q", name)
		}
		for _, mode := range benchModes {
			var last *harness.Result
			median, err := medianDuration(cfg.Repeats, func() (time.Duration, error) {
				res, err := detect(cfg, name, mode, true, harness.UseDefaultOffset)
				if err != nil {
					return 0, err
				}
				last = res
				return res.Duration, nil
			})
			if err != nil {
				return nil, err
			}
			rec := BenchRecord{
				Experiment: "bench",
				Workload:   name,
				Suite:      w.Suite(),
				Mode:       mode.String(),
				Threads:    cfg.Threads,
				Scale:      cfg.Scale,
				Repeats:    cfg.Repeats,
				MedianNs:   median.Nanoseconds(),
			}
			if mode != harness.ModeNative && last != nil {
				st := last.RuntimeStats
				rec.Accesses = st.Accesses
				if median > 0 && st.Accesses > 0 {
					rec.AccessesPerSec = float64(st.Accesses) / median.Seconds()
					rec.NsPerAccess = float64(median.Nanoseconds()) / float64(st.Accesses)
				}
				rec.TrackedLines = st.TrackedLines
				rec.VirtualLines = st.VirtualLines
				rec.Invalidations = st.Invalidations
				rec.Elided = last.Elided
				if last.Report != nil {
					c := last.Report.Counts()
					rec.Findings = c.Findings
					rec.FalseSharing = c.FalseSharing
				}
			}
			doc.Records = append(doc.Records, rec)
		}
	}
	return doc, nil
}

// WriteJSON renders the document as indented JSON.
func (d *BenchDoc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteJSONFile writes the document to path (the -bench-json target).
func (d *BenchDoc) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
