package fleetclient

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"predator/internal/fleet"
)

// flakServer is an ingestion endpoint whose health the test flips. It records
// every accepted findings payload's run ID in arrival order.
type flakServer struct {
	*httptest.Server
	healthy atomic.Bool

	mu   sync.Mutex
	runs []string
	auth []string
}

func newFlakServer(t *testing.T) *flakServer {
	t.Helper()
	fs := &flakServer{}
	fs.healthy.Store(true)
	fs.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if !fs.healthy.Load() {
			http.Error(w, "down for maintenance", http.StatusInternalServerError)
			return
		}
		if strings.HasSuffix(r.URL.Path, "/findings") {
			var fp fleet.FindingsPayload
			if err := json.Unmarshal(body, &fp); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			fs.mu.Lock()
			fs.runs = append(fs.runs, fp.Run.ID)
			fs.auth = append(fs.auth, r.Header.Get("Authorization"))
			fs.mu.Unlock()
		}
		w.WriteHeader(http.StatusCreated)
	}))
	t.Cleanup(fs.Close)
	return fs
}

func (fs *flakServer) accepted() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]string(nil), fs.runs...)
}

// waitStats polls the client's counters until cond holds or the deadline
// passes — the sender is asynchronous by design.
func waitStats(t *testing.T, c *Client, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(c.Stats()) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; stats = %+v", what, c.Stats())
}

func noSleep(time.Duration) {}

func TestClientDeliversWithDefaults(t *testing.T) {
	srv := newFlakServer(t)
	c, err := New(Config{Addr: srv.URL, Token: "s3cret", Project: "db", Tool: "predator", Sleep: noSleep})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.SendFindings(&fleet.FindingsPayload{Run: fleet.RunMeta{ID: "r1"}}); err != nil {
		t.Fatalf("SendFindings: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := srv.accepted(); len(got) != 1 || got[0] != "r1" {
		t.Fatalf("server accepted %v, want [r1]", got)
	}
	srv.mu.Lock()
	auth := srv.auth[0]
	srv.mu.Unlock()
	if auth != "Bearer s3cret" {
		t.Fatalf("Authorization = %q", auth)
	}
	if st := c.Stats(); st.Sent != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Sends after Close are refused, not silently dropped.
	if err := c.SendFindings(&fleet.FindingsPayload{Run: fleet.RunMeta{ID: "r2"}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after Close = %v, want ErrClosed", err)
	}
}

func TestClientSpoolsOnOutageAndReplaysOnRecovery(t *testing.T) {
	srv := newFlakServer(t)
	spool := filepath.Join(t.TempDir(), "fleet.spool")
	var logMu sync.Mutex
	var logs []string
	c, err := New(Config{
		Addr: srv.URL, Project: "db", Tool: "predator",
		Attempts: 2, Sleep: noSleep, SpoolPath: spool, Seed: 1,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Outage: both payloads exhaust retries and land in the spool.
	srv.healthy.Store(false)
	for _, id := range []string{"r1", "r2"} {
		if err := c.SendFindings(&fleet.FindingsPayload{Run: fleet.RunMeta{ID: id}}); err != nil {
			t.Fatalf("SendFindings %s: %v", id, err)
		}
	}
	waitStats(t, c, "2 spooled", func(st Stats) bool { return st.Spooled == 2 })
	if data, err := os.ReadFile(spool); err != nil || len(data) == 0 {
		t.Fatalf("spool file after outage: %d bytes, %v", len(data), err)
	}
	if len(srv.accepted()) != 0 {
		t.Fatalf("server accepted runs during outage: %v", srv.accepted())
	}

	// Recovery: the next delivery succeeds and drags the backlog with it.
	srv.healthy.Store(true)
	if err := c.SendFindings(&fleet.FindingsPayload{Run: fleet.RunMeta{ID: "r3"}}); err != nil {
		t.Fatalf("SendFindings r3: %v", err)
	}
	waitStats(t, c, "replay", func(st Stats) bool { return st.Replayed == 2 })
	if err := c.Close(); err != nil {
		t.Fatalf("Close after recovery: %v", err)
	}

	got := srv.accepted()
	if len(got) != 3 || got[0] != "r3" {
		t.Fatalf("accepted = %v, want r3 then the replayed backlog", got)
	}
	if _, err := os.Stat(spool); !os.IsNotExist(err) {
		t.Fatalf("spool file still present after replay (err=%v)", err)
	}
	// Degradation logs once per outage, recovery once per comeback.
	logMu.Lock()
	defer logMu.Unlock()
	var down, up int
	for _, l := range logs {
		if strings.Contains(l, "degrading to local spool") {
			down++
		}
		if strings.Contains(l, "reachable again") {
			up++
		}
	}
	if down != 1 || up != 1 {
		t.Fatalf("degradation notices: %d down, %d up (logs %q)", down, up, logs)
	}
}

func TestClientBackoffSchedule(t *testing.T) {
	srv := newFlakServer(t)
	srv.healthy.Store(false)
	var sleepMu sync.Mutex
	var sleeps []time.Duration
	c, err := New(Config{
		Addr: srv.URL, Attempts: 3, Seed: 42,
		BaseBackoff: 100 * time.Millisecond, MaxBackoff: 5 * time.Second,
		Sleep: func(d time.Duration) {
			sleepMu.Lock()
			sleeps = append(sleeps, d)
			sleepMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_ = c.SendMetrics(&fleet.MetricsPayload{})
	waitStats(t, c, "retries exhausted", func(st Stats) bool { return st.Failures == 1 })
	_ = c.Close() // errors: the payload was undelivered with no spool

	sleepMu.Lock()
	defer sleepMu.Unlock()
	if len(sleeps) != 2 {
		t.Fatalf("recorded %d sleeps, want 2 (attempts-1)", len(sleeps))
	}
	// Jitter keeps each delay within [0.5x, 1.5x] of base×2^attempt.
	for i, base := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond} {
		lo, hi := base/2, base+base/2
		if sleeps[i] < lo || sleeps[i] > hi {
			t.Fatalf("sleep[%d] = %v, want within [%v, %v]", i, sleeps[i], lo, hi)
		}
	}
	if st := c.Stats(); st.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", st.Retries)
	}
}

func TestClientHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "7")
		http.Error(w, "slow down", http.StatusTooManyRequests)
	}))
	defer ts.Close()

	var sleepMu sync.Mutex
	var sleeps []time.Duration
	c, err := New(Config{
		Addr: ts.URL, Attempts: 2, MaxBackoff: 2 * time.Second,
		Sleep: func(d time.Duration) {
			sleepMu.Lock()
			sleeps = append(sleeps, d)
			sleepMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_ = c.SendMetrics(&fleet.MetricsPayload{})
	waitStats(t, c, "429 exhaustion", func(st Stats) bool { return st.Failures == 1 })
	_ = c.Close()

	sleepMu.Lock()
	defer sleepMu.Unlock()
	// Retry-After (7s) wins over the jittered schedule but is capped at
	// MaxBackoff: the agent must not nap for minutes because a server said so.
	if len(sleeps) != 1 || sleeps[0] != 2*time.Second {
		t.Fatalf("sleeps = %v, want exactly [2s]", sleeps)
	}
	if hits.Load() != 2 {
		t.Fatalf("server hit %d times, want 2", hits.Load())
	}
}

// TestClientRejectedPayloadIsFinal: a status the server answers a payload it
// will never accept (413 here) is not an outage. The payload is posted once,
// counted as a failure and logged with its status; it is not spooled, the
// client does not degrade, and later deliveries do not replay it.
func TestClientRejectedPayloadIsFinal(t *testing.T) {
	var mu sync.Mutex
	posts := map[string]int{} // by ingest type and findings run ID
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var fp fleet.FindingsPayload
		_ = json.Unmarshal(body, &fp)
		mu.Lock()
		posts[filepath.Base(r.URL.Path)+":"+fp.Run.ID]++
		mu.Unlock()
		if fp.Run.ID == "huge" {
			http.Error(w, "payload too large", http.StatusRequestEntityTooLarge)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	spool := filepath.Join(t.TempDir(), "fleet.spool")
	var logMu sync.Mutex
	var logs []string
	c, err := New(Config{
		Addr: ts.URL, Project: "db", Sleep: noSleep, SpoolPath: spool, Seed: 1,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.SendFindings(&fleet.FindingsPayload{Run: fleet.RunMeta{ID: "huge"}}); err != nil {
		t.Fatalf("SendFindings: %v", err)
	}
	for i := 0; i < 6; i++ {
		if err := c.SendMetrics(&fleet.MetricsPayload{}); err != nil {
			t.Fatalf("SendMetrics %d: %v", i, err)
		}
	}
	if err := c.Close(); err == nil || !strings.Contains(err.Error(), "1 undelivered") {
		t.Errorf("Close = %v, want the rejected payload counted undelivered", err)
	}

	mu.Lock()
	hugePosts, metricsPosts := posts["findings:huge"], posts["metrics:"]
	mu.Unlock()
	if hugePosts != 1 || metricsPosts != 6 {
		t.Errorf("POSTs: %d of the rejected payload, %d metrics; want 1 and 6", hugePosts, metricsPosts)
	}
	if st := c.Stats(); st.Sent != 6 || st.Failures != 1 || st.Spooled != 0 || st.Retries != 0 || st.Replayed != 0 {
		t.Errorf("stats = %+v, want 6 sent, 1 failure, nothing retried, spooled or replayed", st)
	}
	if _, err := os.Stat(spool); !os.IsNotExist(err) {
		t.Errorf("spool file written for a rejected payload (err=%v)", err)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if len(logs) != 1 || !strings.Contains(logs[0], "413") || strings.Contains(logs[0], "unreachable") {
		t.Errorf("logs = %q, want one notice naming the 413 and no outage", logs)
	}
}

func TestClientQueueFullDrops(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-gate // first request parks the sender, backing up the queue
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	release := func() { once.Do(func() { close(gate) }) }
	defer release()

	c, err := New(Config{Addr: ts.URL, QueueDepth: 1, Attempts: 1, Sleep: noSleep})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// One in flight (parked), one queued, the rest must drop without blocking.
	sendErrs := 0
	for i := 0; i < 5; i++ {
		if err := c.SendMetrics(&fleet.MetricsPayload{}); err != nil {
			sendErrs++
		}
	}
	st := c.Stats()
	if st.Dropped == 0 || sendErrs == 0 {
		t.Fatalf("no drops under a full queue: stats %+v, %d send errors", st, sendErrs)
	}
	release()
	err = c.Close()
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("Close = %v, want a dropped-payload summary error", err)
	}
}

func TestClientNoGoroutineLeaks(t *testing.T) {
	srv := newFlakServer(t)
	// A shared transport keeps keep-alive connection goroutines out of the
	// measurement: the test is after sender/reporter leaks, not conn pooling.
	httpc := &http.Client{}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		c, err := New(Config{Addr: srv.URL, Sleep: noSleep, HTTP: httpc})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		stop := c.StartReporter(time.Millisecond, func() *fleet.MetricsPayload {
			return &fleet.MetricsPayload{Project: "db"}
		})
		_ = c.SendMetrics(&fleet.MetricsPayload{})
		waitStats(t, c, "a send", func(st Stats) bool { return st.Sent >= 1 })
		stop()
		stop() // idempotent
		if err := c.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	httpc.CloseIdleConnections()
	// The envelope tolerates runtime noise, but 5 client lifecycles leaking
	// even one goroutine each would clear it.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: before %d, after %d", before, runtime.NumGoroutine())
}

func TestClientRejectsBadAddress(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no address succeeded")
	}
	c, err := New(Config{Addr: "127.0.0.1:9177"})
	if err != nil {
		t.Fatalf("New with host:port = %v", err)
	}
	if !strings.HasPrefix(c.base, "http://") {
		t.Fatalf("base = %q, want http:// prefix added", c.base)
	}
	// Nothing was enqueued, so Close drains instantly despite the dead address.
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
