package stack

import (
	"strings"
	"testing"

	"predator/internal/core"
	"predator/internal/fixer"
	"predator/internal/harness"
)

var evalConfig = core.Config{
	TrackingThreshold:   50,
	PredictionThreshold: 100,
	ReportThreshold:     200,
	Prediction:          true,
}

func run(t *testing.T, name string, buggy bool) *harness.Result {
	t.Helper()
	w, ok := harness.Get(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	cfg := evalConfig
	// Deterministic: free-scheduled workers can run back to back on a
	// loaded host and never interleave on the shared line.
	res, err := harness.Execute(w, harness.Options{
		Mode:          harness.ModePredict,
		Threads:       8,
		Buggy:         buggy,
		Deterministic: true,
		Runtime:       &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestKernelPercpuDetectedAndFixed(t *testing.T) {
	buggy := run(t, "kernel_percpu", true)
	if !buggy.FalseSharingFound() {
		t.Error("packed per-CPU stats not detected")
	}
	fixed := run(t, "kernel_percpu", false)
	if fixed.FalseSharingFound() {
		t.Errorf("padded per-CPU stats flagged:\n%s", fixed.Report.String())
	}
	if buggy.Checksum != fixed.Checksum {
		t.Errorf("padding changed kernel accounting: %d vs %d", buggy.Checksum, fixed.Checksum)
	}
}

func TestCardTableDetected(t *testing.T) {
	buggy := run(t, "jvm_cardtable", true)
	if !buggy.FalseSharingFound() {
		t.Fatal("unconditional card marking not detected")
	}
	// The finding must be on the card table (a small byte array), not on
	// the Java-heap regions.
	found := false
	for _, p := range buggy.Report.Problems() {
		if p.HasObject && p.Object.Size < 4096 {
			found = true
		}
	}
	if !found {
		t.Errorf("no problem attributed to the card table:\n%s", buggy.Report.String())
	}
}

func TestConditionalCardMarkingFixes(t *testing.T) {
	buggy := run(t, "jvm_cardtable", true)
	fixed := run(t, "jvm_cardtable", false)
	if fixed.FalseSharingFound() {
		t.Errorf("conditional card marking still flagged:\n%s", fixed.Report.String())
	}
	// Same dirty-card population: the fix changes traffic, not GC state.
	if buggy.Checksum != fixed.Checksum {
		t.Errorf("conditional marking changed the dirty-card set: %d vs %d",
			buggy.Checksum, fixed.Checksum)
	}
}

func TestCardTableAdviceSuggestsSeparation(t *testing.T) {
	buggy := run(t, "jvm_cardtable", true)
	advice := fixer.Suggest(buggy.Report, fixer.Options{Geometry: buggy.Report.Geometry})
	if len(advice) == 0 {
		t.Fatal("no advice for card-table sharing")
	}
	if !strings.Contains(advice[0].Text, "pad") && !strings.Contains(advice[0].Text, "per-thread") {
		t.Errorf("advice = %q", advice[0].Text)
	}
}

func TestStackSuiteRegistered(t *testing.T) {
	for _, name := range []string{"kernel_percpu", "jvm_cardtable"} {
		w, ok := harness.Get(name)
		if !ok {
			t.Errorf("%s not registered", name)
			continue
		}
		if w.Suite() != "stack" {
			t.Errorf("%s suite = %q", name, w.Suite())
		}
		if !w.HasFalseSharing() {
			t.Errorf("%s should carry a bug", name)
		}
	}
}
