package predator_test

import (
	"testing"
	"time"

	predator "predator"
	"predator/internal/harness"
	"predator/internal/obs/spans"
)

// TestSpanOverhead is the span tracer's half of the observability performance
// contract: attaching a tracer to the observer must cost less than 5% on the
// access hot path relative to the same observer without one. Spans are
// created only at pipeline phase boundaries — never per access — so the hot
// loop pays nothing beyond the observer it already carries. The estimator is
// the other overhead tests' (assertOverhead).
func TestSpanOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	withSpans := func() *predator.Observer {
		o := predator.NewObserver()
		o.SetSpans(spans.New(spans.Config{}))
		return o
	}
	assertOverhead(t, "span tracer",
		func() time.Duration { return wholeLoop(t, predator.NewObserver(), nil) },
		func() time.Duration { return wholeLoop(t, withSpans(), nil) })
}

// TestSpanTreeDeterministic is the reproducibility half of the span
// contract: two deterministic runs of the same pipeline produce identical
// span trees — same parent/child structure, same attribute counters, and
// (because deterministic tracers derive IDs from a seeded generator) the
// same trace and span IDs.
func TestSpanTreeDeterministic(t *testing.T) {
	w, ok := harness.Get("histogram")
	if !ok {
		t.Fatal("histogram workload not registered")
	}
	runOnce := func() (spans.TraceID, []spans.Data) {
		o := predator.NewObserver()
		tr := spans.New(spans.Config{Deterministic: true})
		o.SetSpans(tr)
		root := tr.Start("cli.run", nil)
		root.SetLabel("tool", "test")
		_, err := harness.Execute(w, harness.Options{
			Mode:          harness.ModePredict,
			Threads:       4,
			Deterministic: true,
			Observer:      o,
			Span:          root,
		})
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		return tr.TraceID(), tr.Snapshot()
	}
	idA, a := runOnce()
	idB, b := runOnce()
	if idA != idB {
		t.Errorf("deterministic trace IDs differ: %s vs %s", idA, idB)
	}
	if len(a) == 0 {
		t.Fatal("deterministic run produced no spans")
	}
	sigA, sigB := spans.Signature(a), spans.Signature(b)
	if sigA != sigB {
		t.Errorf("span trees differ across deterministic runs:\n--- run A ---\n%s--- run B ---\n%s", sigA, sigB)
	}
	// The tree must cover the pipeline, not just the root.
	names := map[string]bool{}
	for _, d := range a {
		names[d.Name] = true
	}
	for _, want := range []string{"cli.run", "harness.setup", "harness.workload", "report.collect"} {
		if !names[want] {
			t.Errorf("span tree missing %s phase:\n%s", want, sigA)
		}
	}
}
