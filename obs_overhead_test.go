package predator_test

import (
	"runtime"
	"sort"
	"testing"
	"time"

	predator "predator"
)

// hotN is the number of stores one hot loop makes.
const hotN = 500_000

// hotLoop drives one thread through a write-heavy loop that keeps the
// detector's full pipeline busy (tracked lines, sampling, invalidation
// recording) and returns the per-access cost.
func hotLoop(t testing.TB, o *predator.Observer) time.Duration {
	_, th, addr := hotDetector(t, o, nil)
	return hotStores(th, addr) / hotN
}

// hotDetector builds the hot loop's detector (a 4 MiB heap, optionally
// observed and configured) and allocates its 64 KiB object.
func hotDetector(t testing.TB, o *predator.Observer, rc *predator.RuntimeConfig) (*predator.Detector, *predator.Thread, uint64) {
	t.Helper()
	d, err := predator.New(predator.Options{HeapSize: 1 << 22, Observer: o, Runtime: rc})
	if err != nil {
		t.Fatal(err)
	}
	th := d.Thread("w")
	addr, err := th.Alloc(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	return d, th, addr
}

// hotStores runs the hot loop, hotN 8-byte stores sweeping the object, and
// returns its total time.
func hotStores(th *predator.Thread, addr uint64) time.Duration {
	start := time.Now()
	for i := 0; i < hotN; i++ {
		th.Store64(addr+uint64(i%8192)*8, uint64(i))
	}
	return time.Since(start)
}

// TestNoSinkObserverOverhead is the observability subsystem's performance
// contract: attaching an observer with a metrics registry but no event sink
// must cost less than 5% on the access hot path relative to the unobserved
// default. Interleaved min-of-trials measurement filters scheduler noise,
// and the comparison retries before declaring failure so a single noisy
// trial cannot fail the suite.
func TestNoSinkObserverOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const trials, maxAttempts, limit = 5, 3, 1.05
	for attempt := 1; ; attempt++ {
		base, observed := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < trials; i++ {
			if d := hotLoop(t, nil); d < base {
				base = d
			}
			if d := hotLoop(t, predator.NewObserver(nil)); d < observed {
				observed = d
			}
		}
		ratio := float64(observed) / float64(base)
		t.Logf("attempt %d: base=%v observed=%v ratio=%.3f", attempt, base, observed, ratio)
		if ratio <= limit {
			return
		}
		if attempt >= maxAttempts {
			t.Fatalf("no-sink observer overhead %.1f%% exceeds %.0f%% (base=%v observed=%v)",
				(ratio-1)*100, (limit-1)*100, base, observed)
		}
	}
}

// TestSelfProfileOverhead extends the contract to runtime self-profiling:
// when a diagnostics server is attached (predator -diag-addr) the runtime
// times one access per sync batch and maintains an overhead meter. That
// sampled instrumentation must also stay under 5% relative to the plain
// metrics observer, so leaving -diag-addr unset never pays for it and
// enabling it costs next to nothing.
func TestSelfProfileOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const trials, maxAttempts, limit = 5, 3, 1.05
	withSelf := func() *predator.Observer {
		o := predator.NewObserver(nil)
		o.EnableSelfProfile()
		return o
	}
	for attempt := 1; ; attempt++ {
		base, profiled := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < trials; i++ {
			if d := hotLoop(t, predator.NewObserver(nil)); d < base {
				base = d
			}
			if d := hotLoop(t, withSelf()); d < profiled {
				profiled = d
			}
		}
		ratio := float64(profiled) / float64(base)
		t.Logf("attempt %d: base=%v profiled=%v ratio=%.3f", attempt, base, profiled, ratio)
		if ratio <= limit {
			return
		}
		if attempt >= maxAttempts {
			t.Fatalf("self-profile overhead %.1f%% exceeds %.0f%% (base=%v profiled=%v)",
				(ratio-1)*100, (limit-1)*100, base, profiled)
		}
	}
}

// TestFlightRecorderOverhead extends the contract to the flight recorder:
// every tracked line in the hot loop carries an armed ring recorder (the
// default), and recording must stay within the same 5% envelope relative to
// recording disabled. This is the arming rule's performance half: recorders
// only exist past TrackingThreshold, and even then a line records its
// invalidating accesses and one in flight.RecordStride of the others, each
// record costing three locked atomic operations.
//
// One configuration's loop time varies by far more than 5% from run to run
// on a small host, so the estimator is built to cancel that drift rather
// than filter it: each pair times one whole loop of each arm back to back,
// alternating which arm runs first, with the previous loop's garbage
// collected before each timed loop; the assertion is on the median of the
// per-pair ratios.
func TestFlightRecorderOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const pairs, maxAttempts, limit = 15, 3, 1.05
	off := predator.DefaultRuntimeConfig()
	off.FlightDepth = predator.FlightDisabled
	on := predator.DefaultRuntimeConfig() // FlightDepth 0 = recording on at default depth
	for attempt := 1; ; attempt++ {
		ratios := make([]float64, pairs)
		for i := range ratios {
			var base, recording time.Duration
			if i%2 == 0 {
				base, recording = flightLoop(t, off), flightLoop(t, on)
			} else {
				recording, base = flightLoop(t, on), flightLoop(t, off)
			}
			ratios[i] = float64(recording) / float64(base)
		}
		sort.Float64s(ratios)
		ratio := ratios[pairs/2]
		t.Logf("attempt %d: median ratio=%.3f (min %.3f, max %.3f over %d pairs)",
			attempt, ratio, ratios[0], ratios[pairs-1], pairs)
		if ratio <= limit {
			return
		}
		if attempt >= maxAttempts {
			t.Fatalf("flight recorder overhead %.1f%% exceeds %.0f%% (median of %d paired ratios)",
				(ratio-1)*100, (limit-1)*100, pairs)
		}
	}
}

// flightLoop times one whole hot loop under rc, after collecting the
// garbage earlier loops left so no collection lands inside the timed loop.
func flightLoop(t *testing.T, rc predator.RuntimeConfig) time.Duration {
	d, th, addr := hotDetector(t, nil, &rc)
	runtime.GC()
	elapsed := hotStores(th, addr)
	if rc.FlightDepth != predator.FlightDisabled && d.Stats().TrackedLines == 0 {
		t.Fatal("hot loop tracked no lines; the flight-overhead measurement needs armed recorders")
	}
	return elapsed
}

// BenchmarkHotPathNilObserver and BenchmarkHotPathMetricsObserver publish
// the absolute numbers behind the overhead contract.
func BenchmarkHotPathNilObserver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(hotLoop(b, nil).Nanoseconds()), "ns/access")
	}
}

func BenchmarkHotPathMetricsObserver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(hotLoop(b, predator.NewObserver(nil)).Nanoseconds()), "ns/access")
	}
}
