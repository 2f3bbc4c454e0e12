package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"predator/internal/eval"
	"predator/internal/report"
)

// Store is the fleet service's persistent findings store: an append-only
// sequence of JSONL segment files under one directory, fronted by an
// in-memory index rebuilt on open. Durability contract: an ingestion is
// acknowledged only after its envelope line is written (and, with Sync on,
// fsynced) to the active segment — so a kill at any point loses no
// acknowledged record. Recovery is a salvage scan: every segment is read
// line by line, and malformed JSON, CRC mismatches, and the torn tail a
// crash mid-append leaves behind are skipped and accounted rather than
// fatal. The store never appends to a pre-existing segment (it might end in
// a torn line); each open starts a fresh one.
type Store struct {
	cfg StoreConfig

	mu       sync.Mutex
	seg      *os.File
	segW     io.Writer // seg, possibly wrapped by cfg.WrapWriter
	segBytes int64
	segIndex int // numeric suffix of the active segment

	idx      map[string]*tenantIndex // by tenant
	recovery RecoveryStats
	appends  uint64
	pruned   uint64 // segment files removed by retention
}

// StoreConfig configures OpenStore.
type StoreConfig struct {
	// Dir is the store directory; created if absent.
	Dir string
	// SegmentBytes rotates the active segment once it exceeds this size
	// (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// NoSync disables the fsync after every findings append. Metrics and
	// spans appends are never individually synced; findings are, unless
	// this is set (tests, or operators preferring throughput).
	NoSync bool
	// MaxLineBytes bounds how long a stored line may be before the salvage
	// scan declares it corrupt (0 = DefaultMaxLineBytes). Guards recovery
	// against a mangled segment that lost its newlines.
	MaxLineBytes int
	// WrapWriter, when non-nil, wraps every segment file writer — the
	// fault-injection hook the chaos tests use to fail the disk sink
	// mid-append. Production leaves it nil.
	WrapWriter func(io.Writer) io.Writer
	// RetainSegments, when > 0, caps how many segment files the store keeps:
	// at each rotation the oldest fully-acked segments beyond the cap are
	// deleted (never the active one). 0 keeps everything.
	RetainSegments int
	// Clock substitutes time.Now (tests). Nil means time.Now.
	Clock func() time.Time
}

// Store tuning defaults.
const (
	DefaultSegmentBytes = 4 << 20
	DefaultMaxLineBytes = 32 << 20
)

// RecoveryStats accounts what the salvage scan found while rebuilding the
// index from on-disk segments.
type RecoveryStats struct {
	Segments       int    `json:"segments"`
	Records        uint64 `json:"records"`
	Bytes          int64  `json:"bytes"`
	CorruptLines   uint64 `json:"corrupt_lines,omitempty"`   // unparseable JSON or CRC mismatch
	TruncatedTails uint64 `json:"truncated_tails,omitempty"` // segments ending mid-line
	DuplicateRuns  uint64 `json:"duplicate_runs,omitempty"`  // replayed run IDs skipped
	UnknownTypes   uint64 `json:"unknown_types,omitempty"`   // intact records of a type this build skips
}

// Clean reports whether recovery found nothing to complain about.
func (s RecoveryStats) Clean() bool {
	return s.CorruptLines == 0 && s.TruncatedTails == 0 && s.UnknownTypes == 0
}

// tenantIndex is one tenant's slice of the fleet.
type tenantIndex struct {
	projects map[string]*projectIndex
}

// projectIndex holds one project's run history and live agent telemetry.
type projectIndex struct {
	name string
	runs []*RunEntry // ingestion order
	byID map[string]*RunEntry
	// metrics holds the latest metrics payload per agent, stamped with the
	// server-side receive time so staleness survives agent clock skew.
	metrics map[string]*agentMetrics
	// spanDocs holds ingested span snapshots in arrival order; the two maps
	// index the same entries by run ID and by trace ID so the waterfall view
	// resolves either form of reference (a finding's run, a span's trace).
	spanDocs     []*SpansPayload
	spansByRun   map[string]*SpansPayload
	spansByTrace map[string]*SpansPayload
}

// agentMetrics is one agent's latest snapshot plus when the server took it.
type agentMetrics struct {
	payload *MetricsPayload
	recvMs  int64
}

// RunEntry is one ingested findings run as the index holds it.
type RunEntry struct {
	Meta       RunMeta
	Counts     report.Counts
	Reports    map[string]report.JSONReport
	Bench      *eval.BenchDoc
	IngestMs   int64 // server-side ingestion time
	Duplicates int   // replays of this run ID seen (and skipped)
}

// ErrDuplicateRun reports a replayed run ID: the run is already durable, so
// ingestion treats the replay as an idempotent success.
var ErrDuplicateRun = errors.New("fleet: duplicate run id")

// ErrUnknownRun reports a query for a run ID the project has no record of.
var ErrUnknownRun = errors.New("fleet: unknown run")

// OpenStore opens (creating if needed) the store directory, salvage-scans
// every existing segment to rebuild the index, and starts a fresh active
// segment for this process's appends.
func OpenStore(cfg StoreConfig) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fleet: store needs a directory")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.MaxLineBytes <= 0 {
		cfg.MaxLineBytes = DefaultMaxLineBytes
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	s := &Store{cfg: cfg, idx: map[string]*tenantIndex{}}
	if err := s.recover(); err != nil {
		return nil, err
	}
	if err := s.openSegment(); err != nil {
		return nil, err
	}
	return s, nil
}

// segmentName formats the n-th segment's file name; the zero-padded index
// keeps lexical order equal to creation order for recovery.
func segmentName(n int) string { return fmt.Sprintf("seg-%06d.jsonl", n) }

// segments lists existing segment files in creation order.
func (s *Store) segments() ([]string, error) {
	ents, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".jsonl") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// recover rebuilds the in-memory index by salvage-scanning every segment.
func (s *Store) recover() error {
	names, err := s.segments()
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := s.scanSegment(filepath.Join(s.cfg.Dir, name)); err != nil {
			return err
		}
		s.recovery.Segments++
		// Track the highest existing index so the fresh segment sorts after.
		var n int
		if _, err := fmt.Sscanf(name, "seg-%06d.jsonl", &n); err == nil && n > s.segIndex {
			s.segIndex = n
		}
	}
	return nil
}

// scanSegment reads one segment, applying every valid envelope to the index
// and accounting everything else. Only I/O errors are fatal: untrusted
// on-disk bytes must never prevent the service from starting.
func (s *Store) scanSegment(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	for {
		line, err := readLine(br, s.cfg.MaxLineBytes)
		switch {
		case err == io.EOF && len(line) == 0:
			return nil
		case err == io.EOF:
			// Bytes after the final newline: the torn tail of a crashed
			// append. Skipped; the record was never acknowledged.
			s.recovery.TruncatedTails++
			return nil
		case err == errLineTooLong:
			s.recovery.CorruptLines++
			if skipErr := skipToNewline(br); skipErr == io.EOF {
				return nil
			} else if skipErr != nil {
				return fmt.Errorf("fleet: %w", skipErr)
			}
			continue
		case err != nil:
			return fmt.Errorf("fleet: %w", err)
		}
		s.recovery.Bytes += int64(len(line)) + 1
		var env Envelope
		if jsonErr := json.Unmarshal(line, &env); jsonErr != nil {
			s.recovery.CorruptLines++
			continue
		}
		if env.CRC != "" && env.CRC != PayloadCRC(env.Payload) {
			s.recovery.CorruptLines++
			continue
		}
		switch err := s.apply(&env); {
		case err == nil:
			s.recovery.Records++
		case errors.Is(err, ErrDuplicateRun):
			s.recovery.DuplicateRuns++
		case errors.Is(err, errUnknownType):
			// Intact, but of a type this build does not apply (an older
			// predfleet's raw trace upload, say): skipped, not corrupt.
			s.recovery.UnknownTypes++
		default:
			s.recovery.CorruptLines++
		}
	}
}

// errUnknownType marks an envelope whose record type this build does not
// apply.
var errUnknownType = errors.New("fleet: unknown record type")

// errLineTooLong marks a line exceeding MaxLineBytes.
var errLineTooLong = errors.New("fleet: line exceeds MaxLineBytes")

// readLine reads one newline-terminated line (newline stripped), failing
// with errLineTooLong once a line exceeds max, and io.EOF at end of input
// (with any unterminated partial line returned alongside it).
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	var buf []byte
	for {
		chunk, err := br.ReadSlice('\n')
		buf = append(buf, chunk...)
		if err == nil {
			return bytes.TrimRight(buf, "\n"), nil
		}
		if err == bufio.ErrBufferFull {
			if len(buf) > max {
				return nil, errLineTooLong
			}
			continue
		}
		if err == io.EOF {
			return buf, io.EOF
		}
		return nil, err
	}
}

// skipToNewline discards bytes up to and including the next newline.
func skipToNewline(br *bufio.Reader) error {
	for {
		_, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			continue
		}
		return err
	}
}

// tenant returns (creating) one tenant's index slice.
func (s *Store) tenant(name string) *tenantIndex {
	t, ok := s.idx[name]
	if !ok {
		t = &tenantIndex{projects: map[string]*projectIndex{}}
		s.idx[name] = t
	}
	return t
}

// project returns (creating) one project's index within a tenant.
func (t *tenantIndex) project(name string) *projectIndex {
	p, ok := t.projects[name]
	if !ok {
		p = &projectIndex{
			name:         name,
			byID:         map[string]*RunEntry{},
			metrics:      map[string]*agentMetrics{},
			spansByRun:   map[string]*SpansPayload{},
			spansByTrace: map[string]*SpansPayload{},
		}
		t.projects[name] = p
	}
	return p
}

// apply folds one valid envelope into the index. Caller holds s.mu (or is
// the single-threaded recovery scan).
func (s *Store) apply(env *Envelope) error {
	if env.Tenant == "" || env.Project == "" {
		return fmt.Errorf("fleet: envelope missing tenant/project")
	}
	p := s.tenant(env.Tenant).project(env.Project)
	switch env.Type {
	case TypeFindings:
		var fp FindingsPayload
		if err := json.Unmarshal(env.Payload, &fp); err != nil {
			return err
		}
		id := fp.Run.ID
		if id == "" {
			id = env.Run
		}
		if id == "" {
			return fmt.Errorf("fleet: findings without a run id")
		}
		if prev, ok := p.byID[id]; ok {
			prev.Duplicates++
			return ErrDuplicateRun
		}
		fp.Run.ID = id
		fp.Run.Project = env.Project
		e := &RunEntry{
			Meta:     fp.Run,
			Counts:   SumCounts(fp.Reports),
			Reports:  fp.Reports,
			Bench:    fp.Bench,
			IngestMs: env.UnixMs,
		}
		p.runs = append(p.runs, e)
		p.byID[id] = e
		return nil
	case TypeMetrics:
		var mp MetricsPayload
		if err := json.Unmarshal(env.Payload, &mp); err != nil {
			return err
		}
		agent := mp.Agent
		if agent == "" {
			agent = env.Agent
		}
		if agent == "" {
			agent = "unknown"
		}
		mp.Agent = agent
		mp.Project = env.Project
		if prev, ok := p.metrics[agent]; !ok || mp.UnixMs >= prev.payload.UnixMs {
			p.metrics[agent] = &agentMetrics{payload: &mp, recvMs: env.UnixMs}
		}
		return nil
	case TypeSpans:
		var sp SpansPayload
		if err := json.Unmarshal(env.Payload, &sp); err != nil {
			return err
		}
		if err := sp.Validate(); err != nil {
			return err
		}
		sp.Project = env.Project
		// Last write wins per run: a re-shipped snapshot (agent retry)
		// replaces the earlier doc rather than duplicating the trace list.
		if prev, ok := p.spansByRun[sp.Run]; ok {
			delete(p.spansByTrace, prev.TraceID)
			for i, d := range p.spanDocs {
				if d == prev {
					p.spanDocs = append(p.spanDocs[:i], p.spanDocs[i+1:]...)
					break
				}
			}
		}
		p.spanDocs = append(p.spanDocs, &sp)
		p.spansByRun[sp.Run] = &sp
		p.spansByTrace[sp.TraceID] = &sp
		return nil
	default:
		return fmt.Errorf("%w %q", errUnknownType, env.Type)
	}
}

// openSegment starts a fresh active segment (never reusing an existing
// file: a prior crash may have left a torn tail).
func (s *Store) openSegment() error {
	for {
		s.segIndex++
		path := filepath.Join(s.cfg.Dir, segmentName(s.segIndex))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		s.seg = f
		s.segW = io.Writer(f)
		if s.cfg.WrapWriter != nil {
			s.segW = s.cfg.WrapWriter(f)
		}
		s.segBytes = 0
		return nil
	}
}

// appendLocked durably writes one envelope line, rotating on size and
// retrying once on a fresh segment if the active one's writer faults (a
// torn partial line in the abandoned segment is exactly what the salvage
// scan tolerates). Caller holds s.mu.
func (s *Store) appendLocked(env *Envelope, sync bool) error {
	line, err := json.Marshal(env)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if s.segBytes > 0 && s.segBytes+int64(len(line)) > s.cfg.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	wrote, err := s.writeLine(line, sync)
	if err != nil {
		// The active segment's sink is faulting; abandon it (its torn tail
		// is salvage fodder) and retry exactly once on a fresh segment.
		if rerr := s.rotateLocked(); rerr != nil {
			return errors.Join(err, rerr)
		}
		wrote, err = s.writeLine(line, sync)
		if err != nil {
			// The fresh segment faulted too. Abandon it as well — a torn
			// prefix left active would corrupt the next (acked) append that
			// lands after it in the same file.
			if rerr := s.rotateLocked(); rerr != nil {
				return errors.Join(err, rerr)
			}
			return err
		}
	}
	s.segBytes += int64(wrote)
	s.appends++
	return nil
}

// writeLine pushes one line through the (possibly fault-wrapped) writer and
// optionally fsyncs the backing file.
func (s *Store) writeLine(line []byte, sync bool) (int, error) {
	n, err := s.segW.Write(line)
	if err != nil {
		return n, err
	}
	if n < len(line) {
		return n, io.ErrShortWrite
	}
	if sync && !s.cfg.NoSync {
		if err := s.seg.Sync(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// rotateLocked closes the active segment and opens the next one, then
// applies segment retention: with RetainSegments set, the oldest fully-acked
// segments beyond the cap are deleted. Only rotation prunes — an idle store
// never loses a file, and the active segment is never a candidate (it is
// always the newest, and the loop stops before it regardless).
func (s *Store) rotateLocked() error {
	if s.seg != nil {
		_ = s.seg.Close()
		s.seg = nil
	}
	if err := s.openSegment(); err != nil {
		return err
	}
	s.pruneLocked()
	return nil
}

// pruneLocked deletes the oldest segments beyond the RetainSegments cap
// (counting the active one). Deletion failures are ignored: retention is
// best-effort housekeeping, and the next rotation retries. Caller holds s.mu.
func (s *Store) pruneLocked() {
	if s.cfg.RetainSegments <= 0 {
		return
	}
	names, err := s.segments()
	if err != nil {
		return
	}
	active := segmentName(s.segIndex)
	excess := len(names) - s.cfg.RetainSegments
	for i := 0; i < excess && i < len(names); i++ {
		if names[i] == active {
			break
		}
		if os.Remove(filepath.Join(s.cfg.Dir, names[i])) == nil {
			s.pruned++
		}
	}
}

// envelope stamps the common fields for an append.
func (s *Store) envelope(typ, tenant, project, agent, run string, payload []byte) *Envelope {
	return &Envelope{
		V:       EnvelopeVersion,
		Type:    typ,
		Tenant:  tenant,
		Project: project,
		Agent:   agent,
		Run:     run,
		Seq:     s.appends,
		UnixMs:  s.cfg.Clock().UnixMilli(),
		CRC:     PayloadCRC(payload),
		Payload: payload,
	}
}

// AppendFindings durably ingests one run. A replayed run ID returns
// ErrDuplicateRun without writing — the original acknowledgment stands.
func (s *Store) AppendFindings(tenant string, fp *FindingsPayload) (*RunEntry, error) {
	payload, err := json.Marshal(fp)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if fp.Run.ID == "" {
		return nil, fmt.Errorf("fleet: findings without a run id")
	}
	if fp.Run.Project == "" {
		return nil, fmt.Errorf("fleet: findings without a project")
	}
	p := s.tenant(tenant).project(fp.Run.Project)
	if prev, ok := p.byID[fp.Run.ID]; ok {
		prev.Duplicates++
		return prev, ErrDuplicateRun
	}
	env := s.envelope(TypeFindings, tenant, fp.Run.Project, fp.Run.Agent, fp.Run.ID, payload)
	if err := s.appendLocked(env, true); err != nil {
		return nil, err
	}
	if err := s.apply(env); err != nil {
		return nil, err
	}
	return p.byID[fp.Run.ID], nil
}

// AppendMetrics ingests one metrics snapshot (not individually fsynced:
// telemetry is refreshed continuously and may be lost at a crash).
func (s *Store) AppendMetrics(tenant string, mp *MetricsPayload) error {
	payload, err := json.Marshal(mp)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if mp.Project == "" {
		return fmt.Errorf("fleet: metrics without a project")
	}
	env := s.envelope(TypeMetrics, tenant, mp.Project, mp.Agent, mp.Run, payload)
	if err := s.appendLocked(env, false); err != nil {
		return err
	}
	return s.apply(env)
}

// AppendSpans ingests one run's span snapshot (not individually fsynced:
// like metrics, spans are observability sidecars, and the agent keeps its
// own copy via -spans-out).
func (s *Store) AppendSpans(tenant string, sp *SpansPayload) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	payload, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sp.Project == "" {
		return fmt.Errorf("fleet: spans without a project")
	}
	env := s.envelope(TypeSpans, tenant, sp.Project, sp.Agent, sp.Run, payload)
	if err := s.appendLocked(env, false); err != nil {
		return err
	}
	return s.apply(env)
}

// Close closes the active segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	err := s.seg.Close()
	s.seg = nil
	return err
}

// Recovery returns what the opening salvage scan found.
func (s *Store) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Appends returns how many envelopes this process has durably written.
func (s *Store) Appends() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appends
}

// PrunedSegments returns how many segment files retention has deleted.
func (s *Store) PrunedSegments() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pruned
}

// ProjectInfo summarizes one project for /api/v1/projects.
type ProjectInfo struct {
	Project    string `json:"project"`
	Runs       int    `json:"runs"`
	Findings   int    `json:"findings"`
	Agents     int    `json:"agents"`
	SpanTraces int    `json:"span_traces,omitempty"`
	LastUnixMs int64  `json:"last_unix_ms,omitempty"`
}

// Projects lists a tenant's projects, sorted by name.
func (s *Store) Projects(tenant string) []ProjectInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.idx[tenant]
	if !ok {
		return nil
	}
	out := make([]ProjectInfo, 0, len(t.projects))
	for _, p := range t.projects {
		info := ProjectInfo{
			Project:    p.name,
			Runs:       len(p.runs),
			Agents:     len(p.metrics),
			SpanTraces: len(p.spanDocs),
		}
		for _, r := range p.runs {
			info.Findings += r.Counts.Findings
			if r.IngestMs > info.LastUnixMs {
				info.LastUnixMs = r.IngestMs
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Project < out[j].Project })
	return out
}

// RunInfo is one run in /api/v1/runs: meta plus server-side accounting.
type RunInfo struct {
	RunMeta
	Counts     report.Counts `json:"counts"`
	IngestMs   int64         `json:"ingest_unix_ms"`
	Duplicates int           `json:"duplicates,omitempty"`
	HasBench   bool          `json:"has_bench,omitempty"`
}

// runInfo renders one index entry.
func runInfo(e *RunEntry) RunInfo {
	return RunInfo{
		RunMeta:    e.Meta,
		Counts:     e.Counts,
		IngestMs:   e.IngestMs,
		Duplicates: e.Duplicates,
		HasBench:   e.Bench != nil,
	}
}

// Runs returns a project's run history, newest first, capped at n (n <= 0
// means all).
func (s *Store) Runs(tenant, project string, n int) []RunInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.lookupProject(tenant, project)
	if p == nil {
		return nil
	}
	out := make([]RunInfo, 0, len(p.runs))
	for i := len(p.runs) - 1; i >= 0; i-- {
		if n > 0 && len(out) >= n {
			break
		}
		out = append(out, runInfo(p.runs[i]))
	}
	return out
}

// lookupProject resolves (tenant, project) to its index, nil if absent.
// Caller holds s.mu.
func (s *Store) lookupProject(tenant, project string) *projectIndex {
	t, ok := s.idx[tenant]
	if !ok {
		return nil
	}
	return t.projects[project]
}

// Run returns one run's full entry (reports included).
func (s *Store) Run(tenant, project, id string) (*RunEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.lookupProject(tenant, project)
	if p == nil {
		return nil, ErrUnknownRun
	}
	e, ok := p.byID[id]
	if !ok {
		return nil, ErrUnknownRun
	}
	return e, nil
}

// ProjectFinding is one finding in /api/v1/findings: the wire finding plus
// which run and workload reported it.
type ProjectFinding struct {
	Run      string `json:"run"`
	Workload string `json:"workload"`
	IngestMs int64  `json:"ingest_unix_ms"`
	report.JSONFinding
}

// Findings flattens a project's findings across runs, optionally filtered
// to runs ingested at or after sinceMs. Newest runs first.
func (s *Store) Findings(tenant, project string, sinceMs int64) []ProjectFinding {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.lookupProject(tenant, project)
	if p == nil {
		return nil
	}
	var out []ProjectFinding
	for i := len(p.runs) - 1; i >= 0; i-- {
		e := p.runs[i]
		if e.IngestMs < sinceMs {
			continue
		}
		workloads := make([]string, 0, len(e.Reports))
		for w := range e.Reports {
			workloads = append(workloads, w)
		}
		sort.Strings(workloads)
		for _, w := range workloads {
			rep := e.Reports[w]
			for _, f := range rep.Findings {
				out = append(out, ProjectFinding{
					Run: e.Meta.ID, Workload: w, IngestMs: e.IngestMs, JSONFinding: f,
				})
			}
		}
	}
	return out
}

// FreshAgentMetrics returns the latest metrics payload of each agent whose
// stream was still flowing within ttl of now, measured against server-side
// receive time, for a tenant's projects (project == "") or one project,
// sorted by project then agent. This is what keeps /api/v1/hotlines from
// aggregating agents that died mid-run forever.
func (s *Store) FreshAgentMetrics(tenant, project string, now time.Time, ttl time.Duration) []*MetricsPayload {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.idx[tenant]
	if !ok {
		return nil
	}
	minMs := now.UnixMilli() - ttl.Milliseconds()
	var out []*MetricsPayload
	for name, p := range t.projects {
		if project != "" && name != project {
			continue
		}
		for _, am := range p.metrics {
			if am.recvMs < minMs {
				continue
			}
			out = append(out, am.payload)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Project != out[j].Project {
			return out[i].Project < out[j].Project
		}
		return out[i].Agent < out[j].Agent
	})
	return out
}

// TraceInfo summarizes one ingested span snapshot for /api/v1/traces: enough
// to list traces and link each to its run without shipping the span bodies.
type TraceInfo struct {
	Project    string `json:"project"`
	Agent      string `json:"agent,omitempty"`
	Tool       string `json:"tool,omitempty"`
	Run        string `json:"run"`
	TraceID    string `json:"trace_id"`
	UnixMs     int64  `json:"unix_ms"`
	Spans      int    `json:"spans"`
	Root       string `json:"root,omitempty"`
	DurationNs int64  `json:"duration_ns,omitempty"`
}

// traceInfo renders one span doc's summary: root name and duration come from
// the first parentless span (by start tick — Snapshot order is preserved on
// the wire).
func traceInfo(sp *SpansPayload) TraceInfo {
	info := TraceInfo{
		Project: sp.Project,
		Agent:   sp.Agent,
		Tool:    sp.Tool,
		Run:     sp.Run,
		TraceID: sp.TraceID,
		UnixMs:  sp.UnixMs,
		Spans:   len(sp.Spans),
	}
	for i := range sp.Spans {
		if sp.Spans[i].Parent == "" {
			info.Root = sp.Spans[i].Name
			info.DurationNs = sp.Spans[i].Duration().Nanoseconds()
			break
		}
	}
	return info
}

// Traces lists a project's ingested span snapshots, newest first, capped at
// n (n <= 0 means all).
func (s *Store) Traces(tenant, project string, n int) []TraceInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.lookupProject(tenant, project)
	if p == nil {
		return nil
	}
	out := make([]TraceInfo, 0, len(p.spanDocs))
	for i := len(p.spanDocs) - 1; i >= 0; i-- {
		if n > 0 && len(out) >= n {
			break
		}
		out = append(out, traceInfo(p.spanDocs[i]))
	}
	return out
}

// ErrUnknownTrace reports a trace lookup that matched neither a trace ID nor
// a run ID in the project.
var ErrUnknownTrace = errors.New("fleet: unknown trace")

// TraceSpans resolves one span snapshot by trace ID or, failing that, by run
// ID — so a finding's run links straight to its waterfall.
func (s *Store) TraceSpans(tenant, project, id string) (*SpansPayload, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.lookupProject(tenant, project)
	if p == nil {
		return nil, ErrUnknownTrace
	}
	if sp, ok := p.spansByTrace[id]; ok {
		return sp, nil
	}
	if sp, ok := p.spansByRun[id]; ok {
		return sp, nil
	}
	return nil, ErrUnknownTrace
}

// TraceIDForRun resolves a run's ingested span trace ID ("" when the run
// shipped no span snapshot).
func (s *Store) TraceIDForRun(tenant, project, run string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.lookupProject(tenant, project)
	if p == nil {
		return ""
	}
	if sp, ok := p.spansByRun[run]; ok {
		return sp.TraceID
	}
	return ""
}
