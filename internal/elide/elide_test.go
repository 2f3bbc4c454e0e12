package elide

import (
	"path/filepath"
	"sync"
	"testing"

	"predator/internal/cacheline"
	"predator/internal/mem"
)

func TestSiteNormalization(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		// Same module-relative tail, different checkout roots.
		{"/root/repo/internal/workloads/phoenix/histogram.go:41",
			"/home/ci/src/repo/internal/workloads/phoenix/histogram.go:41", true},
		// Windows separators and drive letter on one side.
		{`C:\build\repo\internal\workloads\phoenix\histogram.go:41`,
			"internal/workloads/phoenix/histogram.go:41", true},
		// Bare relative path against an absolute one.
		{"internal/mem/heap.go:318", "/root/repo/internal/mem/heap.go:318", true},
		// Line mismatch never matches.
		{"internal/mem/heap.go:318", "/root/repo/internal/mem/heap.go:319", false},
		// Different files with the same base name but different dirs.
		{"internal/mem/heap.go:10", "internal/other/heap.go:10", false},
		// Suffix match must respect segment boundaries.
		{"internal/mem/xheap.go:10", "heap.go:10", false},
	}
	for _, c := range cases {
		if got := SameSite(c.a, c.b); got != c.want {
			t.Errorf("SameSite(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if got := TrimModuleRoot("C:/build/repo/internal/a/b.go"); got != "internal/a/b.go" {
		t.Errorf("TrimModuleRoot = %q", got)
	}
	if got := TrimModuleRoot("nomarker.go"); got != "nomarker.go" {
		t.Errorf("TrimModuleRoot without marker = %q", got)
	}
}

func TestManifestValidate(t *testing.T) {
	m := &Manifest{Version: Version, LineSize: 64,
		Entries: []Entry{{Proof: ProofReadonly, Mode: ModeReads, Callsite: "a.go:1"}}}
	if err := m.Validate(64); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	if err := m.Validate(128); err == nil {
		t.Error("line-size mismatch accepted")
	}
	bad := &Manifest{Version: Version + 1, LineSize: 64}
	if err := bad.Validate(64); err == nil {
		t.Error("version mismatch accepted")
	}
	badProof := &Manifest{Version: Version, LineSize: 64,
		Entries: []Entry{{Proof: "handwave", Mode: ModeAll}}}
	if err := badProof.Validate(64); err == nil {
		t.Error("unknown proof kind accepted")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "elide.json")
	m := &Manifest{Version: Version, LineSize: 64, Tool: "predlint test",
		Entries: []Entry{
			{Proof: ProofThreadPrivate, Mode: ModeAll, Callsite: "internal/x/y.go:7", Subject: "buf"},
			{Proof: ProofPadded, Mode: ModeAll, Decl: "internal/x/y.go:20", Subject: "padded"},
		}}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 || got.Entries[0].Callsite != "internal/x/y.go:7" {
		t.Fatalf("round trip lost entries: %+v", got.Entries)
	}
	if got.Bindable() != 1 {
		t.Errorf("Bindable = %d, want 1 (padded entries are advisory)", got.Bindable())
	}
}

// newTestHeap builds a small heap and one allocation, returning the heap,
// the object, and its resolved runtime callsite site string.
func newTestHeap(t *testing.T, size uint64) (*mem.Heap, mem.Object, string) {
	t.Helper()
	h, err := mem.NewHeap(mem.Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := h.Alloc(0, size, 0)
	if err != nil {
		t.Fatal(err)
	}
	o, ok := h.FindObject(addr)
	if !ok {
		t.Fatal("allocated object not found")
	}
	leaf := o.Callsite.Leaf()
	return h, o, FormatSite(leaf.File, leaf.Line)
}

func TestBinderCallsiteBinding(t *testing.T) {
	geom := cacheline.MustGeometry(64)
	h, o, site := newTestHeap(t, 1024)

	m := &Manifest{Version: Version, LineSize: 64,
		Entries: []Entry{{Proof: ProofReadonly, Mode: ModeReads, Callsite: site}}}
	b, err := NewBinder(m, geom)
	if err != nil {
		t.Fatal(err)
	}
	b.Attach(h) // object pre-exists: Attach must bind it retroactively
	if b.Bound() != 1 {
		t.Fatalf("Bound = %d, want 1", b.Bound())
	}

	// The elidable interior: aligned-up start + one margin line through
	// aligned-down end - one margin line.
	lo := ((o.Start + 63) &^ 63) + 64
	hi := (o.End() &^ 63) - 64
	if lo >= hi {
		t.Fatalf("object too small for the test: [%#x, %#x)", lo, hi)
	}
	if !b.Elidable(lo, 8, false) {
		t.Error("interior read not elidable")
	}
	if b.Elidable(lo, 8, true) {
		t.Error("write elided under ModeReads")
	}
	if b.Elidable(lo-8, 8, false) {
		t.Error("margin line read elided")
	}
	if b.Elidable(hi-4, 8, false) {
		t.Error("access straddling the span end elided")
	}
	if b.Elidable(o.Start, 1, false) {
		t.Error("first byte of object elided")
	}

	// Freeing the object must withdraw the span before the address recycles.
	if err := h.Free(o.Start); err != nil {
		t.Fatal(err)
	}
	if b.Elidable(lo, 8, false) {
		t.Error("elision survived free")
	}
	if b.Active() != 0 {
		t.Errorf("Active = %d after free, want 0", b.Active())
	}
}

func TestBinderModeAllAndLabels(t *testing.T) {
	geom := cacheline.MustGeometry(64)
	h, err := mem.NewHeap(mem.Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{Version: Version, LineSize: 64,
		Entries: []Entry{{Proof: ProofThreadPrivate, Mode: ModeAll, Label: "table"}}}
	b, err := NewBinder(m, geom)
	if err != nil {
		t.Fatal(err)
	}
	b.Attach(h)

	addr, err := h.DefineGlobal("table", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if b.Bound() != 1 {
		t.Fatalf("global not bound: Bound = %d", b.Bound())
	}
	lo := ((addr + 63) &^ 63) + 64
	if !b.Elidable(lo, 8, true) {
		t.Error("ModeAll write not elidable")
	}

	// Unmatched globals stay unbound.
	if _, err := h.DefineGlobal("other", 1024); err != nil {
		t.Fatal(err)
	}
	if b.Bound() != 1 {
		t.Errorf("unmatched global bound: Bound = %d", b.Bound())
	}
}

func TestBinderSmallObjectHasNoInterior(t *testing.T) {
	geom := cacheline.MustGeometry(64)
	h, o, site := newTestHeap(t, 96) // < 3 lines: nothing survives the margin
	_ = h
	m := &Manifest{Version: Version, LineSize: 64,
		Entries: []Entry{{Proof: ProofThreadPrivate, Mode: ModeAll, Callsite: site}}}
	b, err := NewBinder(m, geom)
	if err != nil {
		t.Fatal(err)
	}
	b.Bind(o)
	if b.Active() != 0 {
		t.Errorf("small object produced a span: Active = %d", b.Active())
	}
	if b.Elidable(o.Start+32, 8, false) {
		t.Error("small object access elided")
	}
}

func TestBinderRejectsStaleManifest(t *testing.T) {
	geom := cacheline.MustGeometry(64)
	m := &Manifest{Version: Version, LineSize: 128}
	if _, err := NewBinder(m, geom); err == nil {
		t.Error("geometry-mismatched manifest accepted")
	}
}

// TestIndexSharedAcrossBinders: one compiled Index serves binders on
// several heaps at once, as the harness's built-in manifest serves
// concurrent runs, and each binder keeps only its own heap's spans.
func TestIndexSharedAcrossBinders(t *testing.T) {
	geom := cacheline.MustGeometry(64)
	probe, err := mem.NewHeap(mem.Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := provenAlloc(probe)
	if err != nil {
		t.Fatal(err)
	}
	o, _ := probe.FindObject(addr)
	leaf := o.Callsite.Leaf()
	x, err := Compile(&Manifest{Version: Version, LineSize: 64,
		Entries: []Entry{{Proof: ProofReadonly, Mode: ModeReads, Callsite: FormatSite(leaf.File, leaf.Line)}}})
	if err != nil {
		t.Fatal(err)
	}
	const heaps, objects = 4, 8
	var wg sync.WaitGroup
	for i := 0; i < heaps; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := mem.NewHeap(mem.Config{Size: 1 << 20})
			if err != nil {
				t.Error(err)
				return
			}
			b, err := x.Binder(geom)
			if err != nil {
				t.Error(err)
				return
			}
			b.Attach(h)
			for j := 0; j < objects; j++ {
				if _, err := h.Alloc(0, 1024, 0); err != nil { // not the proven site
					t.Error(err)
				}
			}
			if _, err := provenAlloc(h); err != nil {
				t.Error(err)
			}
			if b.Bound() != 1 || b.Active() != 1 {
				t.Errorf("Bound = %d, Active = %d, want 1 and 1", b.Bound(), b.Active())
			}
		}()
	}
	wg.Wait()
}

// provenAlloc is the allocation site TestIndexSharedAcrossBinders proves.
func provenAlloc(h *mem.Heap) (uint64, error) { return h.Alloc(0, 1024, 0) }
