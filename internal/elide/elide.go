// Package elide defines the elision manifest: the machine-readable contract
// between predlint's static prover and the runtime's instrumentation
// front-end. The prover (internal/staticfs, the elide analyzer) classifies
// objects whose accesses provably cannot create or change a false-sharing
// finding — thread-private allocations that never escape their goroutine,
// read-only-after-init data, structs already padded onto separate lines —
// and predlint -elide-out serializes those proofs here. The runtime
// (internal/instr) loads the manifest, binds entries to live simulated-heap
// objects by allocation callsite or global label, and drops the proven
// accesses before notification, cutting instrumented-vs-raw overhead
// without moving a single finding (PAPERS.md, "Compiling Away the Overhead
// of Race Detection").
//
// Safety is enforced, not assumed: the binder only ever elides accesses to
// cache lines wholly interior to a proven object, at least MarginLines
// lines away from either end, so no elided access can touch a line — or a
// predicted virtual line, which spans at most two — that any other object's
// traffic lands on. -bench-deterministic finding counts with a manifest
// loaded are bit-identical to a manifest-free run, checked in tests and CI.
package elide

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Version is the manifest schema version this package reads and writes.
// Loading a manifest with any other version fails: a stale manifest whose
// schema drifted from the binary must refuse to bind rather than silently
// mis-elide.
const Version = 1

// Proof kinds. The binder consumes thread_private and readonly; padded
// entries are advisory (they describe a type layout, not an allocation
// site) and carry a Decl position instead of a bindable callsite.
const (
	// ProofThreadPrivate marks an allocation used only by its allocating
	// goroutine context: no access can ever involve a second thread, so
	// both reads and writes are elidable (Mode "all").
	ProofThreadPrivate = "thread_private"
	// ProofReadonly marks data written only during single-goroutine
	// initialization, before any parallel phase, and only read afterwards:
	// reads are elidable (Mode "reads"); the init writes still deliver.
	ProofReadonly = "readonly"
	// ProofPadded marks a concurrently-written struct whose written fields
	// already sit on distinct cache lines, so its layout cannot produce
	// false sharing. Advisory: not bound to runtime addresses.
	ProofPadded = "padded"
)

// Access modes: which access types an entry elides.
const (
	// ModeReads elides reads only; writes keep delivering.
	ModeReads = "reads"
	// ModeAll elides both reads and writes.
	ModeAll = "all"
)

// Entry is one proven-safe subject.
type Entry struct {
	Proof    string `json:"proof"`              // thread_private | readonly | padded
	Mode     string `json:"mode"`               // reads | all
	Package  string `json:"package,omitempty"`  // import path the proof came from
	Scope    string `json:"scope,omitempty"`    // enclosing function (informational)
	Subject  string `json:"subject,omitempty"`  // the proven variable or type name
	Callsite string `json:"callsite,omitempty"` // allocation site, "file.go:line"
	Label    string `json:"label,omitempty"`    // global label (Heap.DefineGlobal name)
	Decl     string `json:"decl,omitempty"`     // padded: the type declaration site
}

// Bindable reports whether the runtime can attach this entry to a live
// object (it names an allocation callsite or a global label).
func (e Entry) Bindable() bool { return e.Callsite != "" || e.Label != "" }

// Manifest is the versioned document predlint -elide-out writes.
type Manifest struct {
	Version  int     `json:"version"`
	LineSize uint64  `json:"line_size"` // cache line size the proofs assumed
	Tool     string  `json:"tool,omitempty"`
	Entries  []Entry `json:"entries"`
}

// Validate checks the manifest against the geometry the runtime is about to
// use. A version or line-size mismatch is a staleness error: the proofs were
// made under different assumptions and must not bind.
func (m *Manifest) Validate(lineSize uint64) error {
	if m.Version != Version {
		return fmt.Errorf("elide: manifest version %d, this binary reads version %d (regenerate with predlint -elide-out)", m.Version, Version)
	}
	if m.LineSize != lineSize {
		return lineSizeError(m.LineSize, lineSize)
	}
	for i, e := range m.Entries {
		switch e.Proof {
		case ProofThreadPrivate, ProofReadonly, ProofPadded:
		default:
			return fmt.Errorf("elide: entry %d: unknown proof kind %q", i, e.Proof)
		}
		switch e.Mode {
		case ModeReads, ModeAll:
		default:
			return fmt.Errorf("elide: entry %d: unknown mode %q", i, e.Mode)
		}
	}
	return nil
}

// lineSizeError reports a manifest proven for other cache lines.
func lineSizeError(manifest, runtime uint64) error {
	return fmt.Errorf("elide: manifest assumes %d-byte lines, runtime uses %d (regenerate with predlint -elide-out -line %d)", manifest, runtime, runtime)
}

// Bindable counts the entries the runtime can attach to live objects.
func (m *Manifest) Bindable() int {
	n := 0
	for _, e := range m.Entries {
		if e.Bindable() {
			n++
		}
	}
	return n
}

// Save writes the manifest as indented JSON.
func (m *Manifest) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads and structurally validates a manifest file. Geometry validation
// happens at bind time, when the line size is known.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("elide: %s: %v", path, err)
	}
	return m, nil
}

// Parse decodes a manifest document and checks its schema version.
func Parse(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing manifest: %v", err)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("manifest version %d, this binary reads version %d", m.Version, Version)
	}
	return &m, nil
}

// --- source-site normalization ---
//
// A manifest written on one machine must bind on another: predlint records
// positions as its loader printed them (often module-relative), while the
// runtime's callsite.Stack resolves absolute build-time paths — possibly
// with the other OS's separators. These helpers put both on common ground
// and are shared with the static/dynamic cross-check.

// NormalizePath rewrites a source path to forward slashes.
func NormalizePath(p string) string {
	return strings.ReplaceAll(p, `\`, "/")
}

// moduleMarkers are path segments that start a module-relative source path
// in this repository's layout; everything before them is machine-specific
// checkout prefix.
var moduleMarkers = []string{"/internal/", "/cmd/", "/testdata/"}

// TrimModuleRoot drops the machine-specific prefix of a normalized path,
// keeping the module-relative tail ("/home/x/repo/internal/a/b.go" ->
// "internal/a/b.go"). Paths without a recognized marker are returned as-is.
func TrimModuleRoot(p string) string {
	cut := -1
	for _, m := range moduleMarkers {
		if i := strings.LastIndex(p, m); i > cut {
			cut = i
		}
	}
	if cut < 0 {
		return p
	}
	return p[cut+1:]
}

// SplitSite splits "file.go:41" into the file path and line. Only the final
// colon is a line separator, so Windows drive letters survive. Line 0 means
// no line component.
func SplitSite(site string) (file string, line int) {
	i := strings.LastIndex(site, ":")
	if i < 0 {
		return site, 0
	}
	n, err := strconv.Atoi(site[i+1:])
	if err != nil || n <= 0 {
		return site, 0
	}
	return site[:i], n
}

// FormatSite renders a normalized, module-root-trimmed "file:line" site.
func FormatSite(file string, line int) string {
	return fmt.Sprintf("%s:%d", TrimModuleRoot(NormalizePath(file)), line)
}

// SameFile reports whether two source paths plausibly name the same file:
// after separator normalization and module-root trimming, one must be a
// path-segment-boundary suffix of the other (equal module-relative tails, or
// a bare filename against a fuller path).
func SameFile(a, b string) bool {
	a = TrimModuleRoot(NormalizePath(a))
	b = TrimModuleRoot(NormalizePath(b))
	if a == "" || b == "" {
		return false
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	if !strings.HasSuffix(a, b) {
		return false
	}
	return len(a) == len(b) || a[len(a)-len(b)-1] == '/'
}

// SameSite reports whether two "file:line" sites match: identical lines and
// the same file under SameFile.
func SameSite(a, b string) bool {
	af, al := SplitSite(a)
	bf, bl := SplitSite(b)
	return al != 0 && al == bl && SameFile(af, bf)
}
