package obs

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestHeartbeatStopFlushesFinalBeat pins the Stop contract: even when the
// ticker never fired (interval far longer than the run), Stop writes one
// final beat, so the snapshot file holds the end-state counter values and
// short runs still leave a valid heartbeat artifact behind.
func TestHeartbeatStopFlushesFinalBeat(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("predator_accesses_total", "")
	path := t.TempDir() + "/hb.prom"
	hb := StartHeartbeat(reg, time.Hour, path)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("snapshot file written before the first beat (stat err=%v)", err)
	}
	c.Add(123) // counted after start, flushed by the final beat
	hb.Stop()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot file not written on Stop: %v", err)
	}
	if !strings.Contains(string(data), "predator_accesses_total 123") {
		t.Errorf("snapshot file missing end-state counter:\n%s", data)
	}
}

// TestHeartbeatStopLeaksNoGoroutine verifies Stop joins the beat loop: after
// starting and stopping many heartbeats the goroutine count settles back to
// its baseline.
func TestHeartbeatStopLeaksNoGoroutine(t *testing.T) {
	reg := NewRegistry()
	dir := t.TempDir()
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		StartHeartbeat(reg, time.Hour, dir+"/hb.prom").Stop()
	}
	// The scheduler may need a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after 50 start/stop cycles", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHeartbeatZeroIntervalIsNoOp: a zero (or negative) interval — the CLIs'
// default when -heartbeat is unset — and a heartbeat with no snapshot path
// (-heartbeat without -metrics-out) start nothing and write nothing, and the
// returned nil handle absorbs Stop.
func TestHeartbeatZeroIntervalIsNoOp(t *testing.T) {
	reg := NewRegistry()
	path := t.TempDir() + "/never.prom"
	for _, tc := range []struct {
		interval time.Duration
		path     string
	}{{0, path}, {-time.Second, path}, {time.Millisecond, ""}} {
		hb := StartHeartbeat(reg, tc.interval, tc.path)
		if hb != nil {
			t.Fatalf("StartHeartbeat(interval=%v, path=%q) = %v, want nil", tc.interval, tc.path, hb)
		}
		hb.Stop() // nil receiver must be safe
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("zero-interval heartbeat wrote a snapshot file (stat err=%v)", err)
	}
}
