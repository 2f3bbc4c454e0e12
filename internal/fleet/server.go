package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"predator/internal/obs"
	"predator/internal/resilience/httpguard"
)

// DefaultMaxBody bounds ingestion request bodies (8 MiB).
const DefaultMaxBody = 8 << 20

// ServerConfig configures NewServer.
type ServerConfig struct {
	// Store is the persistent findings store (required).
	Store *Store
	// Tokens maps bearer token -> tenant name. Empty means every request is
	// rejected 401 except when AllowAnonymous names a tenant.
	Tokens map[string]string
	// AllowAnonymous, when non-empty, admits unauthenticated requests as
	// this tenant — local development only.
	AllowAnonymous string
	// Rate/Burst parameterize the per-tenant ingestion token bucket
	// (<= 0 means DefaultRate / DefaultBurst).
	Rate  float64
	Burst int
	// MaxBody bounds ingestion bodies in bytes (0 = DefaultMaxBody).
	MaxBody int64
	// Registry receives predfleet_* metrics (nil = metrics still served,
	// registry created internally).
	Registry *obs.Registry
	// Build identifies the server in /healthz.
	Build obs.BuildInfo
	// Clock substitutes time.Now (tests). Nil means time.Now.
	Clock func() time.Time
}

// Server is the predfleet HTTP service: token-authenticated multi-tenant
// ingestion with per-tenant rate limiting, fleet-wide query endpoints, and
// its own health/metrics surfaces. Handlers render into buffers inside
// resilience guards, through the httpguard core the diagnostics server
// shares: a panicking endpoint answers 500 and is eventually quarantined to
// 503, but ingestion of other tenants keeps flowing.
type Server struct {
	*httpguard.Server // routes, Handler, Start and Shutdown

	cfg     ServerConfig
	store   *Store
	limiter *RateLimiter
	reg     *obs.Registry
	started time.Time

	mIngest      *obs.Counter // predfleet_ingest_total
	mIngestErr   *obs.Counter
	mRateLimited *obs.Counter
	mDuplicates  *obs.Counter
	mBytes       *obs.Counter
}

// NewServer wires the service; Start serves it.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("fleet: server needs a store")
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := &Server{
		Server:  httpguard.New("fleet"),
		cfg:     cfg,
		store:   cfg.Store,
		limiter: NewRateLimiter(cfg.Rate, cfg.Burst, cfg.Clock),
		reg:     cfg.Registry,
		started: cfg.Clock(),
	}
	s.mIngest = s.reg.Counter("predfleet_ingest_total", "Ingestion requests accepted (findings, metrics, spans).")
	s.mIngestErr = s.reg.Counter("predfleet_ingest_errors_total", "Ingestion requests rejected (bad payloads, store faults).")
	s.mRateLimited = s.reg.Counter("predfleet_rate_limited_total", "Ingestion requests shed with 429.")
	s.mDuplicates = s.reg.Counter("predfleet_duplicate_runs_total", "Replayed run IDs acknowledged idempotently.")
	s.mBytes = s.reg.Counter("predfleet_ingest_bytes_total", "Ingestion payload bytes accepted.")
	s.reg.GaugeFunc("predfleet_store_appends", "Envelopes durably appended by this process.",
		func() float64 { return float64(s.store.Appends()) })
	s.reg.GaugeFunc("predfleet_store_recovered_records", "Records recovered from segments at startup.",
		func() float64 { return float64(s.store.Recovery().Records) })
	s.reg.GaugeFunc("predfleet_store_corrupt_lines", "Corrupt segment lines skipped by the startup salvage scan.",
		func() float64 { return float64(s.store.Recovery().CorruptLines) })
	s.reg.GaugeFunc("predfleet_store_pruned_segments", "Fully-acked segments pruned by -retain-segments.",
		func() float64 { return float64(s.store.PrunedSegments()) })

	s.Handle("/healthz", s.handleHealthz)
	s.Handle("/metrics", s.handleMetrics)
	s.ingest(TypeFindings)
	s.ingest(TypeMetrics)
	s.ingest(TypeSpans)
	s.Handle("/api/v1/traces", s.query(s.handleTraces))
	s.Handle("/api/v1/projects", s.query(s.handleProjects))
	s.Handle("/api/v1/runs", s.query(s.handleRuns))
	s.Handle("/api/v1/findings", s.query(s.handleFindings))
	s.Handle("/api/v1/diff", s.query(s.handleDiff))
	s.Handle("/api/v1/hotlines", s.query(s.handleHotLines))
	s.Handle("/dash/{project}/trace/{id}", s.query(s.handleDashTrace))
	return s, nil
}

// tenantOf authenticates a request: Authorization: Bearer <token> (or the
// X-Predfleet-Token header, or ?token= for the browser-loaded trace
// waterfall, which cannot set headers) resolved through the token table.
func (s *Server) tenantOf(r *http.Request) (string, error) {
	tok := r.Header.Get("X-Predfleet-Token")
	if h := r.Header.Get("Authorization"); tok == "" && strings.HasPrefix(h, "Bearer ") {
		tok = strings.TrimPrefix(h, "Bearer ")
	}
	if tok == "" {
		tok = r.URL.Query().Get("token")
	}
	if tok == "" {
		if s.cfg.AllowAnonymous != "" {
			return s.cfg.AllowAnonymous, nil
		}
		return "", httpguard.Status(http.StatusUnauthorized, "missing bearer token")
	}
	tenant, ok := s.cfg.Tokens[tok]
	if !ok {
		return "", httpguard.Status(http.StatusUnauthorized, "unknown token")
	}
	return tenant, nil
}

// query adapts a tenant-scoped read endpoint to the core: auth, then render.
func (s *Server) query(render func(tenant string, r *http.Request, buf *bytes.Buffer) (string, error)) httpguard.Render {
	return func(r *http.Request, buf *bytes.Buffer) (string, error) {
		tenant, err := s.tenantOf(r)
		if err != nil {
			return "", err
		}
		return render(tenant, r, buf)
	}
}

// ingestAck is the ingestion response body.
type ingestAck struct {
	Status    string `json:"status"` // "ok" | "duplicate"
	Run       string `json:"run,omitempty"`
	Duplicate bool   `json:"duplicate,omitempty"`
}

// ingest registers one POST /api/v1/ingest/{type} endpoint: method check,
// auth, per-tenant rate limit (429 + Retry-After), body cap (413), then
// type-specific decode and durable append. Acknowledgment (2xx) is sent only
// after the store accepted the record.
func (s *Server) ingest(typ string) {
	name := "/api/v1/ingest/" + typ
	s.HandleRaw(name, name, func(w http.ResponseWriter, r *http.Request) {
		// A panic in serveIngest is a rejected request too; the guard
		// answers it 500.
		panicked := true
		defer func() {
			if panicked {
				s.mIngestErr.Inc()
			}
		}()
		code, ack, err := s.serveIngest(typ, r)
		panicked = false
		var se *httpguard.StatusError
		switch {
		case errors.As(err, &se) && se.Code == http.StatusTooManyRequests:
			w.Header().Set("Retry-After", se.Msg)
			http.Error(w, "rate limited", se.Code)
		case err != nil:
			httpguard.WriteError(w, err)
		default:
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(code)
			_ = json.NewEncoder(w).Encode(ack)
		}
	})
}

// serveIngest performs one ingestion request, returning the HTTP status and
// ack body, or an error carrying the failure status.
func (s *Server) serveIngest(typ string, r *http.Request) (int, ingestAck, error) {
	if r.Method != http.MethodPost {
		return 0, ingestAck{}, httpguard.Status(http.StatusMethodNotAllowed, "POST only")
	}
	tenant, err := s.tenantOf(r)
	if err != nil {
		return 0, ingestAck{}, err
	}
	if ok, retry := s.limiter.Allow(tenant); !ok {
		s.mRateLimited.Inc()
		secs := int(retry / time.Second)
		if retry%time.Second != 0 {
			secs++
		}
		if secs < 1 {
			secs = 1
		}
		return 0, ingestAck{}, httpguard.Status(http.StatusTooManyRequests, strconv.Itoa(secs))
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBody+1))
	if err != nil {
		s.mIngestErr.Inc()
		return 0, ingestAck{}, httpguard.Status(http.StatusBadRequest, "reading body: "+err.Error())
	}
	if int64(len(body)) > s.cfg.MaxBody {
		s.mIngestErr.Inc()
		return 0, ingestAck{}, httpguard.Status(http.StatusRequestEntityTooLarge,
			fmt.Sprintf("payload exceeds %d bytes", s.cfg.MaxBody))
	}
	switch typ {
	case TypeFindings:
		var fp FindingsPayload
		if err := strictUnmarshal(body, &fp); err != nil {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpguard.Status(http.StatusBadRequest, "bad findings payload: "+err.Error())
		}
		if fp.Run.Project == "" {
			fp.Run.Project = r.URL.Query().Get("project")
		}
		if fp.Run.ID == "" || fp.Run.Project == "" {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpguard.Status(http.StatusBadRequest, "findings payload needs run.id and run.project")
		}
		entry, err := s.store.AppendFindings(tenant, &fp)
		switch {
		case errors.Is(err, ErrDuplicateRun):
			s.mDuplicates.Inc()
			return http.StatusOK, ingestAck{Status: "duplicate", Run: entry.Meta.ID, Duplicate: true}, nil
		case err != nil:
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpguard.Status(http.StatusServiceUnavailable, "store: "+err.Error())
		}
		s.mIngest.Inc()
		s.mBytes.Add(uint64(len(body)))
		return http.StatusCreated, ingestAck{Status: "ok", Run: entry.Meta.ID}, nil
	case TypeMetrics:
		var mp MetricsPayload
		if err := strictUnmarshal(body, &mp); err != nil {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpguard.Status(http.StatusBadRequest, "bad metrics payload: "+err.Error())
		}
		if mp.Project == "" {
			mp.Project = r.URL.Query().Get("project")
		}
		if mp.Project == "" {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpguard.Status(http.StatusBadRequest, "metrics payload needs a project")
		}
		if err := s.store.AppendMetrics(tenant, &mp); err != nil {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpguard.Status(http.StatusServiceUnavailable, "store: "+err.Error())
		}
		s.mIngest.Inc()
		s.mBytes.Add(uint64(len(body)))
		return http.StatusOK, ingestAck{Status: "ok"}, nil
	case TypeSpans:
		var sp SpansPayload
		if err := strictUnmarshal(body, &sp); err != nil {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpguard.Status(http.StatusBadRequest, "bad spans payload: "+err.Error())
		}
		if sp.Project == "" {
			sp.Project = r.URL.Query().Get("project")
		}
		if sp.Project == "" {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpguard.Status(http.StatusBadRequest, "spans payload needs a project")
		}
		if err := sp.Validate(); err != nil {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpguard.Status(http.StatusBadRequest, err.Error())
		}
		if err := s.store.AppendSpans(tenant, &sp); err != nil {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpguard.Status(http.StatusServiceUnavailable, "store: "+err.Error())
		}
		s.mIngest.Inc()
		s.mBytes.Add(uint64(len(body)))
		return http.StatusOK, ingestAck{Status: "ok", Run: sp.Run}, nil
	default:
		return 0, ingestAck{}, httpguard.Status(http.StatusNotFound, "unknown ingest type")
	}
}

// strictUnmarshal decodes JSON rejecting trailing garbage (a truncated or
// concatenated body must not half-parse into an empty payload).
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// Health is the /healthz response schema.
type Health struct {
	Status        string        `json:"status"`
	Tool          string        `json:"tool"`
	Version       string        `json:"version"`
	Revision      string        `json:"revision,omitempty"`
	GoVersion     string        `json:"go_version"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	Recovery      RecoveryStats `json:"recovery"`
	Appends       uint64        `json:"appends"`
	RateDenied    uint64        `json:"rate_denied"`
	Quarantined   []string      `json:"quarantined,omitempty"`
}

func (s *Server) handleHealthz(_ *http.Request, buf *bytes.Buffer) (string, error) {
	h := Health{
		Status:        "ok",
		Tool:          "predfleet",
		Version:       s.cfg.Build.Version,
		Revision:      s.cfg.Build.ShortRevision(),
		GoVersion:     s.cfg.Build.GoVersion,
		UptimeSeconds: s.cfg.Clock().Sub(s.started).Seconds(),
		Recovery:      s.store.Recovery(),
		Appends:       s.store.Appends(),
		RateDenied:    s.limiter.Denied(),
		Quarantined:   s.Quarantined(),
	}
	return httpguard.WriteJSON(buf, h)
}

func (s *Server) handleMetrics(_ *http.Request, buf *bytes.Buffer) (string, error) {
	if err := s.reg.WritePrometheus(buf); err != nil {
		return "", err
	}
	return "text/plain; version=0.0.4; charset=utf-8", nil
}

// ProjectsResponse is the /api/v1/projects schema.
type ProjectsResponse struct {
	Tenant   string        `json:"tenant"`
	Count    int           `json:"count"`
	Projects []ProjectInfo `json:"projects"`
}

func (s *Server) handleProjects(tenant string, _ *http.Request, buf *bytes.Buffer) (string, error) {
	projects := s.store.Projects(tenant)
	if projects == nil {
		projects = []ProjectInfo{}
	}
	return httpguard.WriteJSON(buf, ProjectsResponse{Tenant: tenant, Count: len(projects), Projects: projects})
}

// RunsResponse is the /api/v1/runs schema.
type RunsResponse struct {
	Tenant  string    `json:"tenant"`
	Project string    `json:"project"`
	Count   int       `json:"count"`
	Runs    []RunInfo `json:"runs"`
}

func (s *Server) handleRuns(tenant string, r *http.Request, buf *bytes.Buffer) (string, error) {
	q := r.URL.Query()
	project := q.Get("project")
	if project == "" {
		return "", httpguard.Status(http.StatusBadRequest, "missing ?project=")
	}
	n := 0
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			return "", httpguard.Status(http.StatusBadRequest, "invalid n: "+raw)
		}
		n = v
	}
	runs := s.store.Runs(tenant, project, n)
	if runs == nil {
		runs = []RunInfo{}
	}
	return httpguard.WriteJSON(buf, RunsResponse{Tenant: tenant, Project: project, Count: len(runs), Runs: runs})
}

// FindingsResponse is the /api/v1/findings schema.
type FindingsResponse struct {
	Tenant   string           `json:"tenant"`
	Project  string           `json:"project"`
	SinceMs  int64            `json:"since_unix_ms,omitempty"`
	Count    int              `json:"count"`
	Findings []ProjectFinding `json:"findings"`
}

func (s *Server) handleFindings(tenant string, r *http.Request, buf *bytes.Buffer) (string, error) {
	q := r.URL.Query()
	project := q.Get("project")
	if project == "" {
		return "", httpguard.Status(http.StatusBadRequest, "missing ?project=")
	}
	var since int64
	if raw := q.Get("since"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return "", httpguard.Status(http.StatusBadRequest, "invalid since (want unix ms): "+raw)
		}
		since = v
	}
	fs := s.store.Findings(tenant, project, since)
	if fs == nil {
		fs = []ProjectFinding{}
	}
	return httpguard.WriteJSON(buf, FindingsResponse{
		Tenant: tenant, Project: project, SinceMs: since, Count: len(fs), Findings: fs,
	})
}

func (s *Server) handleDiff(tenant string, r *http.Request, buf *bytes.Buffer) (string, error) {
	q := r.URL.Query()
	project, baseID, headID := q.Get("project"), q.Get("base"), q.Get("head")
	if project == "" || baseID == "" || headID == "" {
		return "", httpguard.Status(http.StatusBadRequest, "need ?project=&base=&head= (run IDs from /api/v1/runs)")
	}
	tol := 0.0
	if raw := q.Get("tolerance"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 {
			return "", httpguard.Status(http.StatusBadRequest, "invalid tolerance: "+raw)
		}
		tol = v
	}
	base, err := s.store.Run(tenant, project, baseID)
	if err != nil {
		return "", httpguard.Status(http.StatusNotFound, "base run "+baseID+" not found")
	}
	head, err := s.store.Run(tenant, project, headID)
	if err != nil {
		return "", httpguard.Status(http.StatusNotFound, "head run "+headID+" not found")
	}
	delta, err := DiffRuns(project, base, head, tol)
	if err != nil {
		return "", err
	}
	if delta.New == nil {
		delta.New = []FindingRef{}
	}
	if delta.Resolved == nil {
		delta.Resolved = []FindingRef{}
	}
	return httpguard.WriteJSON(buf, delta)
}

// HotLinesResponse is the /api/v1/hotlines schema: the fleet-wide hottest
// lines aggregated across every agent's latest metrics snapshot, tagged
// with their origin. Field names line up with the per-process diagnostics
// server so predtop's shared topview client renders both.
type HotLinesResponse struct {
	Tool      string        `json:"tool"`
	UnixMilli int64         `json:"unix_ms"`
	Requested int           `json:"requested"`
	Count     int           `json:"count"`
	Agents    int           `json:"agents"`
	Stats     StatsSnapshot `json:"stats"`
	Lines     []HotLine     `json:"lines"`
}

// DefaultHotLines is how many lines /api/v1/hotlines returns without ?n=.
const DefaultHotLines = 10

// AgentTTL is how long an agent's metrics stream may go silent before its
// contribution leaves /api/v1/hotlines.
const AgentTTL = 30 * time.Second

func (s *Server) handleHotLines(tenant string, r *http.Request, buf *bytes.Buffer) (string, error) {
	q := r.URL.Query()
	n := DefaultHotLines
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			return "", httpguard.Status(http.StatusBadRequest, "invalid n: "+raw)
		}
		n = v
	}
	// Agents whose metrics stream went silent past the TTL stop
	// contributing: a dead agent's last snapshot must not pin its lines into
	// the fleet view forever.
	snaps := s.store.FreshAgentMetrics(tenant, q.Get("project"), s.cfg.Clock(), AgentTTL)
	resp := HotLinesResponse{
		Tool:      "predfleet",
		UnixMilli: s.cfg.Clock().UnixMilli(),
		Requested: n,
		Agents:    len(snaps),
		Lines:     []HotLine{},
	}
	for _, mp := range snaps {
		resp.Stats.Accesses += mp.Stats.Accesses
		resp.Stats.Writes += mp.Stats.Writes
		resp.Stats.TrackedLines += mp.Stats.TrackedLines
		resp.Stats.VirtualLines += mp.Stats.VirtualLines
		resp.Stats.Invalidations += mp.Stats.Invalidations
		resp.Stats.DegradedLines += mp.Stats.DegradedLines
		resp.Stats.Degraded = resp.Stats.Degraded || mp.Stats.Degraded
		resp.Stats.Elided += mp.Stats.Elided
		traceID := ""
		if mp.Run != "" {
			traceID = s.store.TraceIDForRun(tenant, mp.Project, mp.Run)
		}
		for _, ln := range mp.HotLines {
			ln.Project = mp.Project
			ln.Agent = mp.Agent
			ln.Trace = traceID
			resp.Lines = append(resp.Lines, ln)
		}
	}
	sort.Slice(resp.Lines, func(i, j int) bool {
		if resp.Lines[i].Invalidations != resp.Lines[j].Invalidations {
			return resp.Lines[i].Invalidations > resp.Lines[j].Invalidations
		}
		if resp.Lines[i].Agent != resp.Lines[j].Agent {
			return resp.Lines[i].Agent < resp.Lines[j].Agent
		}
		return resp.Lines[i].Addr < resp.Lines[j].Addr
	})
	if n > 0 && len(resp.Lines) > n {
		resp.Lines = resp.Lines[:n]
	}
	resp.Count = len(resp.Lines)
	return httpguard.WriteJSON(buf, resp)
}

// TracesResponse is the /api/v1/traces schema. Without ?id= it lists the
// project's ingested span snapshots; with one (a trace ID or a run ID) it
// returns that trace's full span set for the waterfall view.
type TracesResponse struct {
	Tenant  string        `json:"tenant"`
	Project string        `json:"project"`
	Count   int           `json:"count"`
	Traces  []TraceInfo   `json:"traces,omitempty"`
	Trace   *SpansPayload `json:"trace,omitempty"`
}

func (s *Server) handleTraces(tenant string, r *http.Request, buf *bytes.Buffer) (string, error) {
	q := r.URL.Query()
	project := q.Get("project")
	if project == "" {
		return "", httpguard.Status(http.StatusBadRequest, "missing ?project=")
	}
	if id := q.Get("id"); id != "" {
		sp, err := s.store.TraceSpans(tenant, project, id)
		if err != nil {
			return "", httpguard.Status(http.StatusNotFound, "trace "+id+" not found")
		}
		return httpguard.WriteJSON(buf, TracesResponse{
			Tenant: tenant, Project: project, Count: len(sp.Spans), Trace: sp,
		})
	}
	n := 0
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			return "", httpguard.Status(http.StatusBadRequest, "invalid n: "+raw)
		}
		n = v
	}
	traces := s.store.Traces(tenant, project, n)
	if traces == nil {
		traces = []TraceInfo{}
	}
	return httpguard.WriteJSON(buf, TracesResponse{
		Tenant: tenant, Project: project, Count: len(traces), Traces: traces,
	})
}
