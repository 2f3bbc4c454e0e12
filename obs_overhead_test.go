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
// contract: attaching an observer with a metrics registry and no span tracer
// must cost less than 5% on the access hot path relative to the unobserved
// default.
func TestNoSinkObserverOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	assertOverhead(t, "no-sink observer",
		func() time.Duration { return wholeLoop(t, nil, nil) },
		func() time.Duration { return wholeLoop(t, predator.NewObserver(), nil) })
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
	withSelf := func() *predator.Observer {
		o := predator.NewObserver()
		o.EnableSelfProfile()
		return o
	}
	assertOverhead(t, "self-profile",
		func() time.Duration { return wholeLoop(t, predator.NewObserver(), nil) },
		func() time.Duration { return wholeLoop(t, withSelf(), nil) })
}

// TestFlightRecorderOverhead extends the contract to the flight recorder:
// every tracked line in the hot loop carries an armed ring recorder (the
// default), and recording must stay within the same 5% envelope relative to
// recording disabled. This is the arming rule's performance half: recorders
// only exist past TrackingThreshold, and even then a line records its
// invalidating accesses and one in flight.RecordStride of the others, each
// record costing three locked atomic operations.
func TestFlightRecorderOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	off := predator.DefaultRuntimeConfig()
	off.FlightDepth = predator.FlightDisabled
	on := predator.DefaultRuntimeConfig() // FlightDepth 0 = recording on at default depth
	assertOverhead(t, "flight recorder",
		func() time.Duration { return flightLoop(t, off) },
		func() time.Duration { return flightLoop(t, on) })
}

// assertOverhead is the timing tests' shared estimator: arm must cost at
// most 5% more than base. One configuration's loop time varies by far more
// than 5% from run to run on a small host, so the estimator is built to
// cancel that drift rather than filter it: each of 15 pairs times one whole
// loop of each arm back to back, alternating which arm runs first, and the
// assertion is on the median of the per-pair ratios. It retries before
// declaring failure, so one noisy attempt cannot fail the suite.
func assertOverhead(t *testing.T, what string, base, arm func() time.Duration) {
	t.Helper()
	const pairs, maxAttempts, limit = 15, 3, 1.05
	for attempt := 1; ; attempt++ {
		ratios := make([]float64, pairs)
		for i := range ratios {
			var b, a time.Duration
			if i%2 == 0 {
				b, a = base(), arm()
			} else {
				a, b = arm(), base()
			}
			ratios[i] = float64(a) / float64(b)
		}
		sort.Float64s(ratios)
		ratio := ratios[pairs/2]
		t.Logf("attempt %d: median ratio=%.3f (min %.3f, max %.3f over %d pairs)",
			attempt, ratio, ratios[0], ratios[pairs-1], pairs)
		if ratio <= limit {
			return
		}
		if attempt >= maxAttempts {
			t.Fatalf("%s overhead %.1f%% exceeds %.0f%% (median of %d paired ratios)",
				what, (ratio-1)*100, (limit-1)*100, pairs)
		}
	}
}

// wholeLoop times one whole hot loop on a fresh detector, after collecting
// the garbage earlier loops left so no collection lands inside the timed
// loop.
func wholeLoop(t *testing.T, o *predator.Observer, rc *predator.RuntimeConfig) time.Duration {
	_, th, addr := hotDetector(t, o, rc)
	runtime.GC()
	return hotStores(th, addr)
}

// flightLoop is wholeLoop under rc, checking that recording had lines to
// record on.
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
		b.ReportMetric(float64(hotLoop(b, predator.NewObserver()).Nanoseconds()), "ns/access")
	}
}
