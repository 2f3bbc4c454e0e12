package shadow

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"predator/internal/cacheline"
)

func testMapping(t testing.TB) Mapping {
	t.Helper()
	m, err := NewMapping(0x400000000, 1<<20, cacheline.MustGeometry(64))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMappingValidation(t *testing.T) {
	g := cacheline.MustGeometry(64)
	if _, err := NewMapping(0x40000001, 1<<20, g); err == nil {
		t.Error("unaligned base accepted")
	}
	if _, err := NewMapping(0x40000000, 100, g); err == nil {
		t.Error("non-multiple size accepted")
	}
	if _, err := NewMapping(0x40000000, 0, g); err == nil {
		t.Error("zero size accepted")
	}
}

func TestMappingIndex(t *testing.T) {
	m := testMapping(t)
	if m.Lines() != (1<<20)/64 {
		t.Fatalf("Lines = %d", m.Lines())
	}
	cases := []struct {
		addr uint64
		idx  uint64
		ok   bool
	}{
		{0x400000000, 0, true},
		{0x40000003f, 0, true},
		{0x400000040, 1, true},
		{0x400000000 + 1<<20 - 1, (1<<20)/64 - 1, true},
		{0x400000000 + 1<<20, 0, false},
		{0x3ffffffff, 0, false},
	}
	for _, c := range cases {
		idx, ok := m.Index(c.addr)
		if ok != c.ok || (ok && idx != c.idx) {
			t.Errorf("Index(%#x) = (%d,%v), want (%d,%v)", c.addr, idx, ok, c.idx, c.ok)
		}
	}
}

func TestLineBaseRoundTrip(t *testing.T) {
	m := testMapping(t)
	for _, idx := range []uint64{0, 1, 17, m.Lines() - 1} {
		base := m.LineBase(idx)
		got, ok := m.Index(base)
		if !ok || got != idx {
			t.Errorf("Index(LineBase(%d)) = (%d,%v)", idx, got, ok)
		}
	}
}

type fakeTrack struct{ id int }

func TestWriteCounters(t *testing.T) {
	s := NewMemory[fakeTrack](testMapping(t))
	if s.Writes(5) != 0 {
		t.Fatal("fresh counter nonzero")
	}
	for i := 1; i <= 10; i++ {
		if got := s.IncWrites(5); got != uint64(i) {
			t.Fatalf("IncWrites -> %d, want %d", got, i)
		}
	}
	if s.Writes(4) != 0 || s.Writes(6) != 0 {
		t.Error("neighbouring counters disturbed")
	}
	s.ResetWrites(5)
	if s.Writes(5) != 0 {
		t.Error("ResetWrites did not zero")
	}
}

func TestInstallTrackFirstWins(t *testing.T) {
	s := NewMemory[fakeTrack](testMapping(t))
	a := &fakeTrack{id: 1}
	b := &fakeTrack{id: 2}
	if got := s.InstallTrack(3, a); got != a {
		t.Fatal("first install did not win")
	}
	if got := s.InstallTrack(3, b); got != a {
		t.Fatal("second install displaced the first")
	}
	if s.Track(3) != a {
		t.Fatal("Track returned wrong state")
	}
	if s.Track(2) != nil {
		t.Fatal("untracked line has state")
	}
}

func TestInstallTrackConcurrent(t *testing.T) {
	s := NewMemory[fakeTrack](testMapping(t))
	const workers = 16
	results := make([]*fakeTrack, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.InstallTrack(7, &fakeTrack{id: i})
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent installs observed different winners")
		}
	}
}

func TestConcurrentIncWrites(t *testing.T) {
	s := NewMemory[fakeTrack](testMapping(t))
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				s.IncWrites(0)
			}
		}()
	}
	wg.Wait()
	if got := s.Writes(0); got != workers*per {
		t.Errorf("Writes = %d, want %d", got, workers*per)
	}
}

// installedChunks counts the chunks present in the directory.
func installedChunks(s *Memory[fakeTrack]) int {
	n := 0
	for i := range s.chunks {
		if s.chunks[i].Load() != nil {
			n++
		}
	}
	return n
}

// ForEachTracked visits tracked lines in ascending order, across chunk
// boundaries and up to the last line of a mapping whose line count is not
// a chunk multiple.
func TestForEachTrackedOrder(t *testing.T) {
	const lines = 2*ChunkLines + 100
	m, err := NewMapping(0x400000000, lines*64, cacheline.MustGeometry(64))
	if err != nil {
		t.Fatal(err)
	}
	s := NewMemory[fakeTrack](m)
	want := []uint64{2, 5, 9, ChunkLines - 1, ChunkLines, 2 * ChunkLines, lines - 1}
	for _, i := range []int{6, 2, 0, 4, 1, 5, 3} {
		s.InstallTrack(want[i], &fakeTrack{id: i})
	}
	var got []uint64
	s.ForEachTracked(func(line uint64, _ *fakeTrack) { got = append(got, line) })
	if !slices.Equal(got, want) {
		t.Fatalf("ForEachTracked visited %v, want %v", got, want)
	}
	if n := installedChunks(s); n != 3 {
		t.Errorf("%d chunks installed, want 3", n)
	}
}

// Reads of a fresh Memory neither allocate nor install a chunk.
func TestReadsAllocateNothing(t *testing.T) {
	s := NewMemory[fakeTrack](testMapping(t))
	last := s.Mapping().Lines() - 1
	visited := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, line := range []uint64{0, ChunkLines, last} {
			if s.Lookup(line) != nil || s.Track(line) != nil || s.Writes(line) != 0 {
				t.Fatalf("line %d of a fresh Memory has state", line)
			}
			s.ResetWrites(line)
		}
		s.ForEachTracked(func(uint64, *fakeTrack) { visited++ })
	})
	if allocs != 0 {
		t.Errorf("reads allocated %v times per run, want 0", allocs)
	}
	if visited != 0 {
		t.Errorf("ForEachTracked visited %d lines of a fresh Memory", visited)
	}
	if n := installedChunks(s); n != 0 {
		t.Errorf("reads installed %d chunks", n)
	}
}

// Eight goroutines released together make the first IncWrites into one
// fresh chunk and race InstallTrack on one of its lines: every count lands
// in the published chunk and every goroutine sees the same winning track.
// Each round uses the next fresh chunk.
func TestFirstTouchOfChunkConcurrent(t *testing.T) {
	s := NewMemory[fakeTrack](testMapping(t))
	const workers = 8
	for round := 0; round < len(s.chunks); round++ {
		counted := uint64(round) * ChunkLines
		contested := counted + ChunkLines/2
		start := make(chan struct{})
		results := make([]*fakeTrack, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				s.IncWrites(counted)
				results[i] = s.InstallTrack(contested, &fakeTrack{id: i})
			}(i)
		}
		close(start)
		wg.Wait()
		if got := s.Writes(counted); got != workers {
			t.Fatalf("round %d: Writes = %d, want %d", round, got, workers)
		}
		winner := s.Track(contested)
		for i, r := range results {
			if r == nil || r != winner {
				t.Fatalf("round %d: goroutine %d saw track %v, published %v", round, i, r, winner)
			}
		}
	}
}

// Property: Index is a bijection between in-range line-aligned addresses and
// [0, Lines): distinct lines map to distinct indices and round-trip.
func TestPropIndexBijection(t *testing.T) {
	m := testMapping(t)
	f := func(raw uint64) bool {
		idx := raw % m.Lines()
		base := m.LineBase(idx)
		got, ok := m.Index(base)
		if !ok || got != idx {
			return false
		}
		// All 64 addresses within the line map to the same index.
		gotLast, ok2 := m.Index(base + 63)
		return ok2 && gotLast == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkIncWrites(b *testing.B) {
	m, _ := NewMapping(0x400000000, 1<<24, cacheline.MustGeometry(64))
	s := NewMemory[fakeTrack](m)
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			s.IncWrites(i % m.Lines())
			i += 64
		}
	})
}
