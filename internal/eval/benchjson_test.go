package eval

import (
	"testing"

	_ "predator/internal/workloads/synthetic" // registers ww_share
)

// TestBenchFindingCounts pins the deterministic sweep's detector counts, so
// a change that moves what PREDATOR-NP or PREDATOR finds fails here rather
// than passing unnoticed in a timing-only benchmark. The three workloads
// cover observed false sharing (histogram), the prediction-only bug
// (linear_regression) and a two-writer line (ww_share).
func TestBenchFindingCounts(t *testing.T) {
	cfg := Default()
	cfg.Deterministic = true
	cfg.Repeats = 1
	doc, err := Bench(cfg, []string{"histogram", "linear_regression", "ww_share"})
	if err != nil {
		t.Fatal(err)
	}
	type counts struct {
		findings, falseSharing int
		invalidations          uint64
	}
	want := map[string]counts{
		"histogram/PREDATOR-NP":         {3, 3, 23431},
		"histogram/PREDATOR":            {22, 22, 23452},
		"linear_regression/PREDATOR-NP": {0, 0, 0},
		"linear_regression/PREDATOR":    {53, 53, 0},
		"ww_share/PREDATOR-NP":          {1, 1, 10004},
		"ww_share/PREDATOR":             {1, 1, 10004},
	}
	seen := 0
	for _, r := range doc.Records {
		if r.Mode == "Original" {
			continue
		}
		key := r.Workload + "/" + r.Mode
		w, ok := want[key]
		if !ok {
			t.Errorf("unexpected record %s", key)
			continue
		}
		seen++
		if got := (counts{r.Findings, r.FalseSharing, r.Invalidations}); got != w {
			t.Errorf("%s: findings/false_sharing/invalidations = %d/%d/%d, want %d/%d/%d",
				key, got.findings, got.falseSharing, got.invalidations,
				w.findings, w.falseSharing, w.invalidations)
		}
	}
	if seen != len(want) {
		t.Errorf("%d detection records, want %d", seen, len(want))
	}
}
