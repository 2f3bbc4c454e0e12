package eval

import (
	"strings"
	"testing"

	_ "predator/internal/workloads/synthetic"
)

func TestPolicyAblationShape(t *testing.T) {
	// Deterministic: the sharing threads must interleave for full
	// instrumentation to see both patterns, however the host schedules
	// goroutines.
	cfg := testCfg()
	cfg.Deterministic = true
	rows, err := PolicyAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]PolicyRow{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Policy] = r
	}
	// Full instrumentation catches both patterns.
	if !byKey["ww_share/full"].Detected || !byKey["rw_share/full"].Detected {
		t.Error("full instrumentation missed a pattern")
	}
	// Writes-only still catches write-write but is blind to read-write.
	if !byKey["ww_share/writes-only"].Detected {
		t.Error("writes-only missed write-write false sharing")
	}
	if byKey["rw_share/writes-only"].Detected {
		t.Error("writes-only claims to see read-write false sharing")
	}
	// Writes-only delivers strictly fewer events on the read-heavy pattern.
	if byKey["rw_share/writes-only"].Delivered >= byKey["rw_share/full"].Delivered {
		t.Errorf("writes-only delivered %d >= full's %d",
			byKey["rw_share/writes-only"].Delivered, byKey["rw_share/full"].Delivered)
	}
	// Dedup reduces event volume without losing the write-write bug.
	if !byKey["ww_share/dedup-8"].Detected {
		t.Error("dedup-8 lost write-write false sharing")
	}
	if byKey["ww_share/dedup-8"].Delivered >= byKey["ww_share/full"].Delivered {
		t.Error("dedup-8 did not reduce delivered events")
	}
	if out := RenderPolicyAblation(rows); !strings.Contains(out, "writes-only") {
		t.Errorf("render:\n%s", out)
	}
}

func TestThresholdAblationShape(t *testing.T) {
	rows, err := ThresholdAblation(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	tiny, def, huge := rows[0], rows[1], rows[2]
	if !tiny.Detected || !def.Detected {
		t.Error("reasonable thresholds missed the histogram bug")
	}
	if huge.Detected {
		t.Error("unreachable threshold still detected (tracking should never start)")
	}
	if huge.TrackedLines != 0 {
		t.Errorf("unreachable threshold tracked %d lines", huge.TrackedLines)
	}
	if tiny.TrackedLines <= def.TrackedLines {
		t.Errorf("threshold 1 tracked %d lines, not above default's %d",
			tiny.TrackedLines, def.TrackedLines)
	}
	if out := RenderThresholdAblation(rows); !strings.Contains(out, "Tracked lines") {
		t.Errorf("render:\n%s", out)
	}
}

func TestGrainAblationMonotone(t *testing.T) {
	rows, err := GrainAblation(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Finer grains must never produce fewer invalidations than coarser
	// ones (monotone non-increasing as grain grows).
	for i := 1; i < len(rows); i++ {
		if rows[i].MaxInvalidations > rows[i-1].MaxInvalidations {
			t.Errorf("grain %d invalidations (%d) above grain %d's (%d)",
				rows[i].Grain, rows[i].MaxInvalidations,
				rows[i-1].Grain, rows[i-1].MaxInvalidations)
		}
	}
	// And the extremes must differ substantially.
	if rows[0].MaxInvalidations < 4*rows[len(rows)-1].MaxInvalidations {
		t.Errorf("grain sweep too flat: %d .. %d",
			rows[0].MaxInvalidations, rows[len(rows)-1].MaxInvalidations)
	}
	if out := RenderGrainAblation(rows); !strings.Contains(out, "Rotation grain") {
		t.Errorf("render:\n%s", out)
	}
}

func TestScalingGapWidens(t *testing.T) {
	cfg := testCfg()
	rows, err := Scaling(cfg, "mysql", []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	two, eight := rows[0], rows[1]
	if two.GapPct <= 0 || eight.GapPct <= 0 {
		t.Fatalf("gaps not positive: %+v", rows)
	}
	// The false sharing penalty must widen with thread count — the
	// MySQL scalability-collapse signature (paper §4.1.2).
	if eight.GapPct <= two.GapPct {
		t.Errorf("gap at 8 threads (%.1f%%) not above 2 threads (%.1f%%)",
			eight.GapPct, two.GapPct)
	}
	if out := RenderScaling("mysql", rows); !strings.Contains(out, "Gap") {
		t.Errorf("render:\n%s", out)
	}
}
