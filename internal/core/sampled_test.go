package core_test

import (
	"cmp"
	"slices"
	"testing"

	"predator/internal/core"
	"predator/internal/harness"
	"predator/internal/mem"
	"predator/internal/report"
	_ "predator/internal/workloads/phoenix" // registers linear_regression
)

// sampledFinding is one predicted finding's exact counts.
type sampledFinding struct{ accesses, invalidations uint64 }

// runSampledLReg runs deterministic buggy linear_regression under the paper's
// default configuration, sampling included, the way perfbench's lreg-predict
// workload does: a 64 MiB heap, seed 1 and a scheduling grain of 16.
func runSampledLReg(t *testing.T, threads, scale int) (core.Stats, []sampledFinding) {
	t.Helper()
	w, ok := harness.Get("linear_regression")
	if !ok {
		t.Fatal("linear_regression is not registered")
	}
	h, err := mem.NewHeap(mem.Config{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(h, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := harness.Options{
		Threads:            threads,
		Scale:              scale,
		Buggy:              true,
		Seed:               1,
		HeapSize:           64 << 20,
		Deterministic:      true,
		DeterministicGrain: 16,
	}
	if _, err := harness.ExecuteSimOnHeap(w, opts, h, rt); err != nil {
		t.Fatal(err)
	}
	var got []sampledFinding
	for _, f := range rt.Report().Findings {
		if f.Source != report.SourceObserved {
			got = append(got, sampledFinding{f.Accesses, f.Invalidations})
		}
	}
	slices.SortFunc(got, func(a, b sampledFinding) int {
		return cmp.Or(cmp.Compare(a.accesses, b.accesses), cmp.Compare(a.invalidations, b.invalidations))
	})
	return rt.Stats(), got
}

// Sampled prediction counts exactly: perfbench's lreg-predict run (2
// threads, scale 20) with word counting on reports the same accesses,
// invalidations and sampled accesses as one ordinal per access per line.
func TestSampledPredictionExact(t *testing.T) {
	st, got := runSampledLReg(t, 2, 20)
	want := core.Stats{
		Accesses:             3_600_012,
		Writes:               1_680_002,
		TrackedLines:         3,
		VirtualLines:         8,
		Invalidations:        0,
		VirtualInvalidations: 21_080,
		SampledAccesses:      40_016,
	}
	if st != want {
		t.Errorf("stats = %+v\nwant    %+v", st, want)
	}
	wantFindings := []sampledFinding{
		{1_319_353, 2_954}, {1_319_354, 2_954}, {1_319_356, 2_954},
		{1_559_234, 2_500}, {1_559_236, 2_500}, {1_559_237, 2_500}, {1_559_239, 2_500},
		{2_638_706, 2_218},
	}
	if !slices.Equal(got, wantFindings) {
		t.Errorf("predicted findings (accesses, invalidations) = %v\nwant %v", got, wantFindings)
	}
}

// The same configuration at 8 threads and scale 1: more lines and more
// virtual lines, still exact.
func TestSampledPredictionExact8Threads(t *testing.T) {
	st, _ := runSampledLReg(t, 8, 1)
	if st.TrackedLines != 9 || st.VirtualLines != 53 || st.VirtualInvalidations != 68_973 || st.SampledAccesses != 80_016 {
		t.Errorf("tracked/virtual lines, virtual invalidations, sampled = %d/%d/%d/%d, want 9/53/68973/80016",
			st.TrackedLines, st.VirtualLines, st.VirtualInvalidations, st.SampledAccesses)
	}
}
