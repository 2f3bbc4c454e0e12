package eval

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"predator/internal/harness"
)

// ---------------------------------------------------------------- Figure 2

// Fig2Point is one offset sample of the linear_regression placement sweep.
type Fig2Point struct {
	Offset        uint64
	Cycles        uint64  // cache-model elapsed cycles
	Invalidations uint64  // simulator invalidations
	Slowdown      float64 // cycles / best cycles over the sweep
}

// Figure2 regenerates the object-alignment sensitivity curve: the buggy
// linear_regression at starting offsets 0..56 in steps of 8. The paper's
// curve is flat at offsets 0 and 56 and peaks (~15x) near 24; the shape here
// comes from the cache simulator.
func Figure2(cfg Config) ([]Fig2Point, error) {
	var points []Fig2Point
	best := ^uint64(0)
	for off := uint64(0); off < 64; off += 8 {
		cycles, stats, err := simulate(cfg, "linear_regression", true, off)
		if err != nil {
			return nil, err
		}
		points = append(points, Fig2Point{Offset: off, Cycles: cycles, Invalidations: stats.Invalidations})
		if cycles < best {
			best = cycles
		}
	}
	for i := range points {
		points[i].Slowdown = float64(points[i].Cycles) / float64(best)
	}
	return points, nil
}

// RenderFigure2 prints the sweep as the paper's bar chart.
func RenderFigure2(points []Fig2Point) string {
	var b strings.Builder
	b.WriteString("Object Alignment Sensitivity (linear_regression, model cycles)\n")
	var maxS float64
	for _, p := range points {
		if p.Slowdown > maxS {
			maxS = p.Slowdown
		}
	}
	for _, p := range points {
		fmt.Fprintf(&b, "Offset=%-2d  %6.2fx  inv=%-9d %s\n",
			p.Offset, p.Slowdown, p.Invalidations, bar(p.Slowdown, maxS, 40))
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 5

// Figure5 regenerates the example report: the latent linear_regression
// problem found by prediction, with callsite and word-level information.
func Figure5(cfg Config) (string, error) {
	res, err := detect(cfg, "linear_regression", harness.ModePredict, true, harness.UseDefaultOffset)
	if err != nil {
		return "", err
	}
	fs := res.Report.FalseSharing()
	if len(fs) == 0 {
		return "", fmt.Errorf("eval: linear_regression produced no false sharing report")
	}
	return fs[0].Format(res.Report.Geometry), nil
}

// ---------------------------------------------------------------- Figure 7

// Fig7Row is one workload's execution-time overhead measurement.
type Fig7Row struct {
	Workload   string
	Original   time.Duration
	NP         time.Duration // PREDATOR-NP (no prediction)
	Full       time.Duration // PREDATOR
	OverheadNP float64       // NP / Original
	Overhead   float64       // Full / Original
}

// medianDuration runs fn repeats times and returns the median duration.
func medianDuration(repeats int, fn func() (time.Duration, error)) (time.Duration, error) {
	if repeats < 1 {
		repeats = 1
	}
	ds := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
	}
	return median(ds), nil
}

// median returns the middle of ds (the upper middle for an even count),
// sorting ds in place.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// fig7Modes is Figure 7's legend, in its column order.
var fig7Modes = [...]harness.Mode{harness.ModeNative, harness.ModeDetect, harness.ModePredict}

// Figure7 measures each workload under Original / PREDATOR-NP / PREDATOR.
// The paper reports ~6x average overhead; the exact multiple here depends on
// the host, but instrumented modes must dominate Original and prediction
// must cost little over detection.
//
// Each row first runs every mode once untimed, so no mode pays the row's
// cold start. A repeat then times the modes in rounds of one run each, the
// first mode rotating from round to round, until every mode has run three
// times and for 5 ms in total (at most eight rounds), so very short
// workloads (aget) are not pure timer noise and a stretch of host load
// falls on every mode alike. A mode's time in a repeat is its fastest run,
// since host noise only ever adds time; the row reports each mode's median
// over repeats.
func Figure7(cfg Config, workloads []string) ([]Fig7Row, error) {
	const (
		minRounds = 3
		maxRounds = 8
		minTotal  = 5 * time.Millisecond
	)
	var rows []Fig7Row
	for _, name := range workloads {
		run := func(mode harness.Mode) (time.Duration, error) {
			runtime.GC() // no run pays for collecting the last one's heap
			res, err := detect(cfg, name, mode, true, harness.UseDefaultOffset)
			if err != nil {
				return 0, err
			}
			return res.Duration, nil
		}
		for _, mode := range fig7Modes {
			if _, err := run(mode); err != nil {
				return nil, err
			}
		}
		var times [len(fig7Modes)][]time.Duration
		for r := 0; r < max(cfg.Repeats, 1); r++ {
			var total, fastest [len(fig7Modes)]time.Duration
			for round := 0; round < maxRounds; round++ {
				if round >= minRounds && slices.Min(total[:]) >= minTotal {
					break
				}
				for k := range fig7Modes {
					i := (round + k) % len(fig7Modes)
					d, err := run(fig7Modes[i])
					if err != nil {
						return nil, err
					}
					total[i] += d
					if round == 0 || d < fastest[i] {
						fastest[i] = d
					}
				}
			}
			for i, d := range fastest {
				times[i] = append(times[i], d)
			}
		}
		orig, np, full := median(times[0]), median(times[1]), median(times[2])
		row := Fig7Row{Workload: name, Original: orig, NP: np, Full: full}
		if orig > 0 {
			row.OverheadNP = float64(np) / float64(orig)
			row.Overhead = float64(full) / float64(orig)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure7 prints normalized runtimes like the paper's Figure 7.
func RenderFigure7(rows []Fig7Row) string {
	var b strings.Builder
	tw := newTableWriter(&b, "Benchmark", "Original", "PREDATOR-NP", "PREDATOR", "NP x", "Full x")
	var sumNP, sumFull float64
	for _, r := range rows {
		tw.row(r.Workload, r.Original.Round(time.Microsecond).String(),
			r.NP.Round(time.Microsecond).String(), r.Full.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2f", r.OverheadNP), fmt.Sprintf("%.2f", r.Overhead))
		sumNP += r.OverheadNP
		sumFull += r.Overhead
	}
	if n := float64(len(rows)); n > 0 {
		tw.row("AVERAGE", "", "", "", fmt.Sprintf("%.2f", sumNP/n), fmt.Sprintf("%.2f", sumFull/n))
	}
	tw.flush()
	return b.String()
}

// ----------------------------------------------------------- Figures 8 & 9

// Fig8Row is one workload's memory measurement.
type Fig8Row struct {
	Workload      string
	OriginalBytes uint64
	PredatorBytes uint64
	Relative      float64
}

// Figure8 measures Go-heap usage for Original vs PREDATOR runs (the
// reproduction's analog of the paper's proportional-set-size measurement;
// Figure 9 is the same data normalized).
func Figure8(cfg Config, workloads []string) ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, name := range workloads {
		w, ok := harness.Get(name)
		if !ok {
			return nil, fmt.Errorf("eval: unknown workload %q", name)
		}
		measure := func(mode harness.Mode) (uint64, error) {
			opts := cfg.options(mode)
			opts.MeasureMemory = true
			res, err := harness.Execute(w, opts)
			if err != nil {
				return 0, err
			}
			return res.MemUsed(), nil
		}
		orig, err := measure(harness.ModeNative)
		if err != nil {
			return nil, err
		}
		pred, err := measure(harness.ModePredict)
		if err != nil {
			return nil, err
		}
		row := Fig8Row{Workload: name, OriginalBytes: orig, PredatorBytes: pred}
		if orig > 0 {
			row.Relative = float64(pred) / float64(orig)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure8 prints absolute memory usage (paper Figure 8).
func RenderFigure8(rows []Fig8Row) string {
	var b strings.Builder
	tw := newTableWriter(&b, "Benchmark", "Original (MB)", "PREDATOR (MB)")
	for _, r := range rows {
		tw.row(r.Workload,
			fmt.Sprintf("%.1f", float64(r.OriginalBytes)/(1<<20)),
			fmt.Sprintf("%.1f", float64(r.PredatorBytes)/(1<<20)))
	}
	tw.flush()
	return b.String()
}

// RenderFigure9 prints relative memory overhead (paper Figure 9).
func RenderFigure9(rows []Fig8Row) string {
	var b strings.Builder
	tw := newTableWriter(&b, "Benchmark", "Relative memory")
	var sum float64
	for _, r := range rows {
		tw.row(r.Workload, fmt.Sprintf("%.2fx", r.Relative))
		sum += r.Relative
	}
	if n := float64(len(rows)); n > 0 {
		tw.row("AVERAGE", fmt.Sprintf("%.2fx", sum/n))
	}
	tw.flush()
	return b.String()
}

// --------------------------------------------------------------- Figure 10

// Fig10SampleRates are the paper's evaluated sampling rates.
var Fig10SampleRates = []struct {
	Name          string
	Window, Burst uint64
}{
	{"0.1%", 10000, 10},
	{"1% (default)", 10000, 100},
	{"10%", 10000, 1000},
}

// Fig10Benchmarks is the paper's Figure 10 subset.
func Fig10Benchmarks() []string {
	return []string{"histogram", "linear_regression", "reverse_index", "word_count", "streamcluster"}
}

// Fig10Row is one (benchmark, rate) measurement.
type Fig10Row struct {
	Workload      string
	Rate          string
	Duration      time.Duration
	Normalized    float64 // vs the default 1% rate
	Detected      bool    // false sharing still found
	Invalidations uint64  // max invalidations over FS findings
}

// Figure10 measures sampling-rate sensitivity: lower rates must stay
// cheaper while still detecting every problem (with lower invalidation
// counts), as in §4.4.
func Figure10(cfg Config) ([]Fig10Row, error) {
	var rows []Fig10Row
	// Double the workload scale: sampling leaves so few recorded events
	// at test-sized inputs that detection margins need the extra traffic.
	cfg.Scale *= 2
	for _, name := range Fig10Benchmarks() {
		var defaultDur time.Duration
		for _, rate := range Fig10SampleRates {
			opts := cfg.options(harness.ModePredict)
			rc := opts.Runtime
			rc.SampleWindow = rate.Window
			rc.SampleBurst = rate.Burst
			// Thresholds apply to *recorded* events; the base evaluation
			// config is unsampled, so scale thresholds by the sampling
			// rate to judge a sampled test-sized run the way the paper's
			// minutes-long runs were judged (where even 0.1% sampling
			// left counts far above the absolute thresholds).
			scale := float64(rate.Burst) / float64(rate.Window)
			rc.ReportThreshold = max(1, uint64(float64(rc.ReportThreshold)*scale))
			rc.PredictionThreshold = max(1, uint64(float64(rc.PredictionThreshold)*scale))
			w, _ := harness.Get(name)
			dur, err := medianDuration(cfg.Repeats, func() (time.Duration, error) {
				res, err := harness.Execute(w, opts)
				if err != nil {
					return 0, err
				}
				return res.Duration, nil
			})
			if err != nil {
				return nil, err
			}
			res, err := harness.Execute(w, opts)
			if err != nil {
				return nil, err
			}
			var maxInv uint64 // max recorded invalidations over findings
			for _, f := range res.Report.FalseSharing() {
				if f.Invalidations > maxInv {
					maxInv = f.Invalidations
				}
			}
			if rate.Name == "1% (default)" {
				defaultDur = dur
			}
			rows = append(rows, Fig10Row{
				Workload:      name,
				Rate:          rate.Name,
				Duration:      dur,
				Detected:      res.FalseSharingFound(),
				Invalidations: maxInv,
			})
		}
		// Normalize the benchmark's three rows against its default rate.
		for i := len(rows) - len(Fig10SampleRates); i < len(rows); i++ {
			if defaultDur > 0 {
				rows[i].Normalized = float64(rows[i].Duration) / float64(defaultDur)
			}
		}
	}
	return rows, nil
}

// RenderFigure10 prints the sensitivity table.
func RenderFigure10(rows []Fig10Row) string {
	var b strings.Builder
	tw := newTableWriter(&b, "Benchmark", "Rate", "Runtime", "Normalized", "Detected", "Max invalidations")
	for _, r := range rows {
		det := ""
		if r.Detected {
			det = "yes"
		}
		tw.row(r.Workload, r.Rate, r.Duration.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2f", r.Normalized), det, fmt.Sprintf("%d", r.Invalidations))
	}
	tw.flush()
	return b.String()
}

// ------------------------------------------------------------------- Apps

// AppRow is one real-application case-study result (§4.1.2).
type AppRow struct {
	App      string
	Detected bool
	Findings int
}

// Apps runs the six application analogs: MySQL and Boost must be flagged,
// the other four must stay clean.
func Apps(cfg Config) ([]AppRow, error) {
	var rows []AppRow
	for _, name := range AppWorkloads() {
		res, err := detect(cfg, name, harness.ModePredict, true, harness.UseDefaultOffset)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AppRow{
			App:      name,
			Detected: res.FalseSharingFound(),
			Findings: len(res.Report.FalseSharing()),
		})
	}
	return rows, nil
}

// RenderApps prints the case-study summary.
func RenderApps(rows []AppRow) string {
	var b strings.Builder
	tw := newTableWriter(&b, "Application", "False sharing detected", "Findings")
	for _, r := range rows {
		det := "no"
		if r.Detected {
			det = "YES"
		}
		tw.row(r.App, det, fmt.Sprintf("%d", r.Findings))
	}
	tw.flush()
	return b.String()
}
