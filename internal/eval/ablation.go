package eval

import (
	"fmt"
	"strings"
	"time"

	"predator/internal/harness"
	"predator/internal/instr"
)

// Ablation studies for the design choices DESIGN.md calls out: how much
// each mechanism (full read+write instrumentation, the tracking threshold,
// interleaving granularity) contributes to detection power and cost. These
// go beyond the paper's published figures but quantify trade-offs the paper
// discusses qualitatively (§2.4.2's selective instrumentation, §2.4.1's
// threshold, §3.3's interleaving assumption).

// ---------------------------------------------------- instrumentation policy

// PolicyRow is one (workload, policy) outcome.
type PolicyRow struct {
	Workload  string
	Policy    string
	Detected  bool
	Delivered uint64 // events that reached the runtime
	Duration  time.Duration
}

// PolicyAblation compares full instrumentation against SHERIFF-style
// writes-only and basic-block-style dedup on the two synthetic sharing
// patterns: writes-only must still catch write-write false sharing but is
// blind to read-write false sharing (the paper's §2.4.2/§7.3 point), while
// costing fewer delivered events.
func PolicyAblation(cfg Config) ([]PolicyRow, error) {
	policies := []struct {
		name   string
		policy instr.Policy
	}{
		{"full", instr.Policy{}},
		{"writes-only", instr.Policy{WritesOnly: true}},
		{"dedup-8", instr.Policy{DedupWindow: 8}},
	}
	var rows []PolicyRow
	for _, workload := range []string{"ww_share", "rw_share"} {
		w, ok := harness.Get(workload)
		if !ok {
			return nil, fmt.Errorf("eval: unknown workload %q", workload)
		}
		for _, p := range policies {
			opts := cfg.options(harness.ModePredict)
			opts.Policy = p.policy
			res, err := harness.Execute(w, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, PolicyRow{
				Workload:  workload,
				Policy:    p.name,
				Detected:  res.FalseSharingFound(),
				Delivered: res.RuntimeStats.Accesses,
				Duration:  res.Duration,
			})
		}
	}
	return rows, nil
}

// RenderPolicyAblation formats the policy study.
func RenderPolicyAblation(rows []PolicyRow) string {
	var b strings.Builder
	tw := newTableWriter(&b, "Workload", "Policy", "Detected", "Events delivered", "Runtime")
	for _, r := range rows {
		det := "no"
		if r.Detected {
			det = "YES"
		}
		tw.row(r.Workload, r.Policy, det, fmt.Sprintf("%d", r.Delivered),
			r.Duration.Round(time.Microsecond).String())
	}
	tw.flush()
	return b.String()
}

// ------------------------------------------------------- tracking threshold

// ThresholdRow is one tracking-threshold outcome.
type ThresholdRow struct {
	Threshold    uint64
	Detected     bool
	TrackedLines int
	Duration     time.Duration
}

// ThresholdAblation sweeps the TrackingThreshold on the histogram workload:
// a tiny threshold tracks vastly more lines (slower); a huge one tracks
// nothing and misses the bug. The paper's default (§2.4.1) sits in between.
func ThresholdAblation(cfg Config) ([]ThresholdRow, error) {
	w, ok := harness.Get("histogram")
	if !ok {
		return nil, fmt.Errorf("eval: histogram not registered")
	}
	var rows []ThresholdRow
	for _, th := range []uint64{1, cfg.Runtime.TrackingThreshold, 1 << 40} {
		opts := cfg.options(harness.ModePredict)
		rc := opts.Runtime
		rc.TrackingThreshold = th
		if rc.PredictionThreshold < th {
			rc.PredictionThreshold = th * 2
		}
		res, err := harness.Execute(w, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ThresholdRow{
			Threshold:    th,
			Detected:     res.FalseSharingFound(),
			TrackedLines: res.RuntimeStats.TrackedLines,
			Duration:     res.Duration,
		})
	}
	return rows, nil
}

// RenderThresholdAblation formats the threshold study.
func RenderThresholdAblation(rows []ThresholdRow) string {
	var b strings.Builder
	tw := newTableWriter(&b, "TrackingThreshold", "Detected", "Tracked lines", "Runtime")
	for _, r := range rows {
		det := "no"
		if r.Detected {
			det = "YES"
		}
		tw.row(fmt.Sprintf("%d", r.Threshold), det,
			fmt.Sprintf("%d", r.TrackedLines), r.Duration.Round(time.Microsecond).String())
	}
	tw.flush()
	return b.String()
}

// ------------------------------------------------- interleaving granularity

// GrainRow is one deterministic-scheduler grain outcome.
type GrainRow struct {
	Grain            int
	MaxInvalidations uint64
	Duration         time.Duration
}

// GrainAblation runs the write-write pattern under the deterministic
// round-robin scheduler at several rotation grains: finer interleaving
// produces proportionally more invalidations — the quantitative face of the
// paper's "conservatively assume accesses interleave" (§3.3).
func GrainAblation(cfg Config) ([]GrainRow, error) {
	w, ok := harness.Get("ww_share")
	if !ok {
		return nil, fmt.Errorf("eval: ww_share not registered")
	}
	var rows []GrainRow
	for _, grain := range []int{1, 4, 16, 64, 256} {
		opts := cfg.options(harness.ModePredict)
		opts.Deterministic, opts.DeterministicGrain = true, grain
		res, err := harness.Execute(w, opts)
		if err != nil {
			return nil, err
		}
		var m uint64
		for _, f := range res.Report.FalseSharing() {
			if f.Invalidations > m {
				m = f.Invalidations
			}
		}
		rows = append(rows, GrainRow{Grain: grain, MaxInvalidations: m, Duration: res.Duration})
	}
	return rows, nil
}

// RenderGrainAblation formats the grain study.
func RenderGrainAblation(rows []GrainRow) string {
	var b strings.Builder
	tw := newTableWriter(&b, "Rotation grain (accesses)", "Max invalidations", "Runtime")
	for _, r := range rows {
		tw.row(fmt.Sprintf("%d", r.Grain), fmt.Sprintf("%d", r.MaxInvalidations),
			r.Duration.Round(time.Microsecond).String())
	}
	tw.flush()
	return b.String()
}
