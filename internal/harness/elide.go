package harness

import (
	_ "embed"
	"sync"

	"predator/internal/core"
	"predator/internal/elide"
	"predator/internal/instr"
	"predator/internal/mem"
)

//go:generate go run predator/cmd/predlint -elide-out elide_manifest.json predator/internal/workloads/...

// builtinManifest is predlint's elision manifest for the in-tree workloads.
// Regenerate it with `go generate ./internal/harness` after editing a
// workload: a test fails when it differs from a fresh predlint run, since a
// stale file:line could bind a different allocation.
//
//go:embed elide_manifest.json
var builtinManifest []byte

// builtinIndex parses and indexes the built-in manifest once per process,
// so each run's binder holds only the spans it binds.
var builtinIndex = sync.OnceValues(func() (*elide.Index, error) {
	m, err := elide.Parse(builtinManifest)
	if err != nil {
		return nil, err
	}
	return elide.Compile(m)
})

// ElideOff, as Options.Elide, turns static elision off: every access reaches
// the sink.
var ElideOff = &elide.Manifest{}

// ElideFlag resolves a command-line -elide value: "" selects the built-in
// manifest (nil), "off" is ElideOff, and anything else is a manifest path.
func ElideFlag(v string) (*elide.Manifest, error) {
	switch v {
	case "":
		return nil, nil
	case "off":
		return ElideOff, nil
	}
	return elide.Load(v)
}

// elisionIndex picks the compiled manifest a run binds, or nil for none. An
// explicit Options.Elide binds to any sink and is refused on a line-size
// mismatch. The built-in manifest binds only when the sink is the detection
// runtime and the heap's lines are the manifest's, so a capture sink (the
// cache simulator, a trace recording) still sees every access.
func elisionIndex(opts Options, h *mem.Heap, sink instr.Sink) (*elide.Index, error) {
	switch {
	case sink == nil || opts.Elide == ElideOff:
		return nil, nil
	case opts.Elide != nil:
		return elide.Compile(opts.Elide)
	}
	if _, ok := sink.(*core.Runtime); !ok {
		return nil, nil
	}
	idx, err := builtinIndex()
	if err != nil || idx.LineSize() != h.Geometry().Size() {
		return nil, err
	}
	return idx, nil
}
