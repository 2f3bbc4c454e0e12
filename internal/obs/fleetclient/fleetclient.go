// Package fleetclient is the agent side of fleet mode: a bounded, buffered
// exporter that streams findings, metric snapshots, and span traces from
// a detector process to a predfleet service. The design goals mirror the
// rest of the observability layer — the detector must never block or die
// because telemetry is struggling:
//
//   - Bounded buffering: Send* never blocks; when the queue is full the
//     payload is dropped and counted.
//   - Retry with jittered exponential backoff, honoring 429 Retry-After.
//     A payload the server rejects outright is neither retried nor spooled.
//   - Graceful degradation: after the retry budget, payloads spill to a
//     local JSONL spool file; the next successful delivery replays the
//     spool, so a server outage delays telemetry instead of losing it.
package fleetclient

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"predator/internal/core"
	"predator/internal/fleet"
	"predator/internal/obs/topview"
)

// Config parameterizes New. Addr is required; everything else has
// serviceable defaults.
type Config struct {
	// Addr is the predfleet address: "host:port" or a full "http://" base URL.
	Addr string
	// Token authenticates the agent's tenant (Authorization: Bearer).
	Token string
	// Project scopes everything this client sends.
	Project string
	// Agent names this process in fleet views (default "host:pid").
	Agent string
	// Tool is the producing CLI ("predator", "predbench", ...).
	Tool string

	// QueueDepth bounds the send buffer (default 128 payloads).
	QueueDepth int
	// Attempts per payload before spooling (default 3).
	Attempts int
	// BaseBackoff/MaxBackoff bound the jittered exponential retry delay
	// (defaults 100ms / 5s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// SpoolPath is the local fallback sink; "" disables spooling.
	SpoolPath string
	// Seed fixes the backoff jitter stream (0: seeded from the clock).
	Seed int64

	// HTTP, Sleep, and Now are injectable for tests (fake clocks, recorded
	// backoff schedules). Nil means the real thing.
	HTTP  *http.Client
	Sleep func(time.Duration)
	Now   func() time.Time
	// Logf receives degradation notices (server unreachable, spool events);
	// nil discards them.
	Logf func(format string, args ...any)
}

// Stats counts what the client did, for end-of-run summaries and tests.
type Stats struct {
	Sent     uint64 // payloads acknowledged by the server
	Retries  uint64 // delivery attempts beyond the first
	Dropped  uint64 // payloads lost to a full queue
	Spooled  uint64 // payloads written to the local spool
	Replayed uint64 // spooled payloads later delivered
	Failures uint64 // payloads rejected by the server, or that exhausted retries with no spool
}

// item is one queued delivery.
type item struct {
	Type string `json:"type"` // fleet.Type*
	Body []byte `json:"body"` // request body
}

// Client streams payloads to one predfleet service. Construct with New,
// send with SendFindings/SendMetrics/SendSpans, and Close to drain.
type Client struct {
	cfg   Config
	base  string
	rnd   *rand.Rand // guarded by rndMu: jitter for backoff
	rndMu sync.Mutex

	mu     sync.Mutex
	closed bool
	ch     chan item
	wg     sync.WaitGroup
	stats  Stats
	// degraded remembers whether the last delivery failed, so the "server
	// unreachable" notice logs once per outage, not once per payload.
	degraded bool
}

// New builds and starts a client (one background sender goroutine).
func New(cfg Config) (*Client, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("fleetclient: needs a server address")
	}
	base := cfg.Addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if _, err := url.Parse(base); err != nil {
		return nil, fmt.Errorf("fleetclient: bad address %q: %w", cfg.Addr, err)
	}
	if cfg.Project == "" {
		cfg.Project = "default"
	}
	if cfg.Agent == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "agent"
		}
		cfg.Agent = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 128
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = cfg.Now().UnixNano()
	}
	c := &Client{
		cfg:  cfg,
		base: strings.TrimRight(base, "/"),
		rnd:  rand.New(rand.NewSource(seed)),
		ch:   make(chan item, cfg.QueueDepth),
	}
	c.wg.Add(1)
	go c.senderLoop()
	return c, nil
}

// Project returns the project this client reports under.
func (c *Client) Project() string { return c.cfg.Project }

// Agent returns this client's agent name.
func (c *Client) Agent() string { return c.cfg.Agent }

// SendFindings enqueues one run's findings payload. Never blocks; a full
// queue drops (counted in Stats).
func (c *Client) SendFindings(fp *fleet.FindingsPayload) error {
	if fp.Run.Project == "" {
		fp.Run.Project = c.cfg.Project
	}
	if fp.Run.Agent == "" {
		fp.Run.Agent = c.cfg.Agent
	}
	if fp.Run.Tool == "" {
		fp.Run.Tool = c.cfg.Tool
	}
	body, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	return c.enqueue(item{Type: fleet.TypeFindings, Body: body})
}

// SendMetrics enqueues one metrics snapshot.
func (c *Client) SendMetrics(mp *fleet.MetricsPayload) error {
	if mp.Project == "" {
		mp.Project = c.cfg.Project
	}
	if mp.Agent == "" {
		mp.Agent = c.cfg.Agent
	}
	if mp.Tool == "" {
		mp.Tool = c.cfg.Tool
	}
	if mp.UnixMs == 0 {
		mp.UnixMs = c.cfg.Now().UnixMilli()
	}
	body, err := json.Marshal(mp)
	if err != nil {
		return err
	}
	return c.enqueue(item{Type: fleet.TypeMetrics, Body: body})
}

// SendSpans enqueues one run's span snapshot — the trace-context propagation
// leg: the same trace ID the agent exported locally (-spans-out) becomes
// addressable fleet-wide via /api/v1/traces and the trace waterfall.
func (c *Client) SendSpans(sp *fleet.SpansPayload) error {
	if sp.Project == "" {
		sp.Project = c.cfg.Project
	}
	if sp.Agent == "" {
		sp.Agent = c.cfg.Agent
	}
	if sp.Tool == "" {
		sp.Tool = c.cfg.Tool
	}
	if sp.UnixMs == 0 {
		sp.UnixMs = c.cfg.Now().UnixMilli()
	}
	body, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	return c.enqueue(item{Type: fleet.TypeSpans, Body: body})
}

// ErrClosed reports a send after Close.
var ErrClosed = fmt.Errorf("fleetclient: closed")

// enqueue is the non-blocking bounded buffer.
func (c *Client) enqueue(it item) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	select {
	case c.ch <- it:
		return nil
	default:
		c.stats.Dropped++
		return fmt.Errorf("fleetclient: queue full, payload dropped")
	}
}

// StartReporter polls src every interval and enqueues the snapshot it
// returns (nil snapshots are skipped) — the live telemetry feed behind the
// fleet-wide predtop. The returned stop function is idempotent.
func (c *Client) StartReporter(interval time.Duration, src func() *fleet.MetricsPayload) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if mp := src(); mp != nil {
					_ = c.SendMetrics(mp)
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Close stops accepting sends, drains the queue (each remaining payload
// still gets its full retry/spool treatment), and stops the sender. It
// returns a summary error when anything was dropped or failed undelivered.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.ch)
	c.wg.Wait()
	st := c.Stats()
	if st.Dropped > 0 || st.Failures > 0 {
		return fmt.Errorf("fleetclient: %d payload(s) dropped, %d undelivered (spooled: %d)",
			st.Dropped, st.Failures, st.Spooled)
	}
	return nil
}

// Stats snapshots the client's delivery counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// senderLoop drains the queue until Close.
func (c *Client) senderLoop() {
	defer c.wg.Done()
	for it := range c.ch {
		c.deliver(it, c.cfg.Attempts, true)
	}
}

// deliver posts one item with retries; on exhaustion it spools (when
// enabled and spool is true) or counts a failure. A rejected payload is
// counted as a failure at once: the server is up and will never accept it.
// A successful delivery triggers a spool replay: the server is back.
func (c *Client) deliver(it item, attempts int, spool bool) bool {
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
		}
		retryAfter, err := c.post(&it)
		if err == nil {
			c.mu.Lock()
			c.stats.Sent++
			wasDegraded := c.degraded
			c.degraded = false
			c.mu.Unlock()
			if wasDegraded {
				c.logf("fleetclient: %s reachable again", c.cfg.Addr)
				c.replaySpool()
			}
			return true
		}
		if errors.Is(err, errRejected) {
			c.logf("%v; payload dropped", err)
			c.mu.Lock()
			c.stats.Failures++
			c.mu.Unlock()
			return false
		}
		lastErr = err
		delay := c.backoff(attempt)
		if retryAfter > 0 {
			delay = retryAfter
			if delay > c.cfg.MaxBackoff {
				delay = c.cfg.MaxBackoff
			}
		}
		if attempt < attempts-1 {
			c.cfg.Sleep(delay)
		}
	}
	c.mu.Lock()
	firstFailure := !c.degraded
	c.degraded = true
	c.mu.Unlock()
	if firstFailure {
		c.logf("fleetclient: %s unreachable (%v); degrading to local spool", c.cfg.Addr, lastErr)
	}
	if spool && c.cfg.SpoolPath != "" {
		if err := c.spool(it); err == nil {
			c.mu.Lock()
			c.stats.Spooled++
			c.mu.Unlock()
			return false
		}
		c.logf("fleetclient: spool write failed; payload lost")
	}
	c.mu.Lock()
	c.stats.Failures++
	c.mu.Unlock()
	return false
}

// errRejected marks a status predfleet answers a payload it will never
// accept: malformed (400), unknown type (404), not a POST (405) or too large
// (413). Retrying or spooling such a payload cannot deliver it.
var errRejected = errors.New("fleetclient: payload rejected")

// post performs one HTTP attempt. A 429 returns the server's Retry-After
// as a positive duration alongside the error; a final status returns an
// error wrapping errRejected.
func (c *Client) post(it *item) (retryAfter time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/api/v1/ingest/"+it.Type, bytes.NewReader(it.Body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.cfg.Token)
	}
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return 0, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		return retryAfter, fmt.Errorf("fleetclient: rate limited (429)")
	case resp.StatusCode == http.StatusBadRequest, resp.StatusCode == http.StatusNotFound,
		resp.StatusCode == http.StatusMethodNotAllowed, resp.StatusCode == http.StatusRequestEntityTooLarge:
		return 0, fmt.Errorf("%w: %s: %s", errRejected, it.Type, resp.Status)
	default:
		return 0, fmt.Errorf("fleetclient: %s: %s", it.Type, resp.Status)
	}
}

// backoff computes the jittered exponential delay for the given attempt:
// base×2^attempt capped at max, then jittered uniformly in [0.5×, 1.5×].
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BaseBackoff << uint(attempt)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	c.rndMu.Lock()
	f := 0.5 + c.rnd.Float64()
	c.rndMu.Unlock()
	return time.Duration(float64(d) * f)
}

// logf emits a degradation notice.
func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// spooled is the spool file's line schema.
type spooled struct {
	Type string `json:"type"`
	Body string `json:"body"` // base64
}

// spool appends one undeliverable item to the local spool file.
func (c *Client) spool(it item) error {
	f, err := os.OpenFile(c.cfg.SpoolPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	line, err := json.Marshal(spooled{
		Type: it.Type, Body: base64.StdEncoding.EncodeToString(it.Body),
	})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := f.Write(line); err != nil {
		return err
	}
	return f.Sync()
}

// replaySpool re-sends everything in the spool file after a recovery.
// Payloads that fail again are re-spooled; the file only shrinks when the
// server actually accepted its backlog.
func (c *Client) replaySpool() {
	if c.cfg.SpoolPath == "" {
		return
	}
	data, err := os.ReadFile(c.cfg.SpoolPath)
	if err != nil || len(data) == 0 {
		return
	}
	if err := os.Remove(c.cfg.SpoolPath); err != nil {
		return
	}
	lines := bytes.Split(data, []byte("\n"))
	replayed := 0
	for _, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var sp spooled
		if err := json.Unmarshal(line, &sp); err != nil {
			continue
		}
		body, err := base64.StdEncoding.DecodeString(sp.Body)
		if err != nil {
			continue
		}
		// Single attempt, re-spool on failure: if the server flapped back
		// down, the backlog returns to disk instead of vanishing.
		if c.deliver(item{Type: sp.Type, Body: body}, 1, true) {
			replayed++
		}
	}
	if replayed > 0 {
		c.mu.Lock()
		c.stats.Replayed += uint64(replayed)
		c.mu.Unlock()
		c.logf("fleetclient: replayed %d spooled payload(s)", replayed)
	}
}

// SnapshotRuntime builds a MetricsPayload from a live runtime: the standard
// stats block plus the top-n hottest lines with pre-rendered ownership
// heatmaps. The helper the CLIs hand to StartReporter. The elided counter
// lives in the instrumentation front-end, not core.Stats, so the caller
// fills Stats.Elided.
func SnapshotRuntime(rt *core.Runtime, n int) *fleet.MetricsPayload {
	if rt == nil {
		return nil
	}
	st := rt.Stats()
	mp := &fleet.MetricsPayload{
		Stats: fleet.StatsSnapshot{
			Accesses:      st.Accesses,
			Writes:        st.Writes,
			TrackedLines:  st.TrackedLines,
			VirtualLines:  st.VirtualLines,
			Invalidations: st.Invalidations,
			DegradedLines: st.DegradedLines,
			Degraded:      st.Degraded,
		},
	}
	for _, ln := range rt.HotLines(n) {
		mp.HotLines = append(mp.HotLines, fleet.HotLine{
			Line:          ln.Line,
			Addr:          ln.Addr,
			Accesses:      ln.Accesses,
			Reads:         ln.Reads,
			Writes:        ln.Writes,
			Invalidations: ln.Invalidations,
			ReportWorthy:  ln.ReportWorthy,
			Degraded:      ln.Degraded,
			Owners:        topview.Heatmap(ln),
		})
	}
	return mp
}

// NewRunID derives a reasonably unique run identifier for CLIs that did not
// get one from the user: tool-host-pid-unixms.
func NewRunID(tool string, now time.Time) string {
	host, _ := os.Hostname()
	if host == "" {
		host = "agent"
	}
	return fmt.Sprintf("%s-%s-%d-%d", tool, host, os.Getpid(), now.UnixMilli())
}
