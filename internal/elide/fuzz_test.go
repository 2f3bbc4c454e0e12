package elide

import (
	"encoding/json"
	"reflect"
	"testing"

	"predator/internal/cacheline"
	"predator/internal/callsite"
	"predator/internal/mem"
)

// FuzzManifest feeds arbitrary documents to the manifest parser, which
// `-elide PATH` runs on a file from outside the program: Parse never
// panics; a manifest that parses and validates round-trips through
// json.Marshal and Parse unchanged, compiles, binds only to a heap with its
// own line size, and binds and answers elision queries on objects named by
// its entries without panicking. The seeds are in
// testdata/fuzz/FuzzManifest.
func FuzzManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil || m.Validate(m.LineSize) != nil {
			return
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshalling a parsed manifest: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("reparsing %s: %v", out, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the manifest:\n%+v\nwant\n%+v", back, m)
		}
		x, err := Compile(m)
		if err != nil {
			t.Fatalf("Compile rejected a valid manifest: %v", err)
		}
		if _, err := x.Binder(cacheline.MustGeometry(64)); (err == nil) != (m.LineSize == 64) {
			t.Fatalf("binding a %d-byte-line manifest to 64-byte lines: error %v", m.LineSize, err)
		}
		// Lines up to 1 MiB keep the objects below far from overflowing an
		// address.
		geom, err := cacheline.NewGeometry(int(m.LineSize))
		if err != nil || geom.Size() > 1<<20 {
			return
		}
		b, err := x.Binder(geom)
		if err != nil {
			t.Fatalf("binding to the manifest's own %d-byte lines: %v", m.LineSize, err)
		}
		// One global per labelled entry and one heap object from this
		// callsite, each eight lines long, one line apart.
		line := geom.Size()
		objs := []mem.Object{{Start: line, Size: 8 * line, Callsite: callsite.Capture(0)}}
		for _, e := range m.Entries {
			if e.Label != "" {
				start := objs[len(objs)-1].End() + line
				objs = append(objs, mem.Object{Start: start, Size: 8 * line, Thread: -1, Label: e.Label, Global: true})
			}
		}
		for _, o := range objs {
			b.Bind(o)
		}
		for _, o := range objs {
			for a := o.Start; a < o.End(); a += line / 2 {
				b.Elidable(a, 8, false)
				b.Elidable(a, 8, true)
			}
			b.Unbind(o.Start, o.Size)
		}
		if b.Active() != 0 {
			t.Fatalf("%d spans still bound after every object was freed", b.Active())
		}
	})
}
