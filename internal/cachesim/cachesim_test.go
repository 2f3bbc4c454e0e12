package cachesim

import (
	"testing"
	"testing/quick"
)

func sim2(t testing.TB) *Sim {
	t.Helper()
	s, err := New(Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaults(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Cores() != 8 {
		t.Errorf("Cores = %d, want 8", s.Cores())
	}
	if s.Geometry().Size() != 64 {
		t.Errorf("line size = %d", s.Geometry().Size())
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := New(Config{Cores: -1}); err == nil {
		t.Error("negative cores accepted")
	}
	if _, err := New(Config{LineSize: 100}); err == nil {
		t.Error("bad line size accepted")
	}
}

func TestColdMissThenHit(t *testing.T) {
	s := sim2(t)
	s.Access(0, 0x1000, 8, false)
	s.Access(0, 0x1000, 8, false)
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Invalidations != 0 {
		t.Error("cold traffic caused invalidations")
	}
}

func TestWriteInvalidatesRemoteCopy(t *testing.T) {
	s := sim2(t)
	s.Access(0, 0x1000, 8, false) // core 0 reads (E)
	s.Access(1, 0x1000, 8, true)  // core 1 writes: invalidate core 0
	st := s.Stats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	// Core 0 rereads: miss again (its copy is gone) and core 1's dirty
	// line is written back and downgraded.
	s.Access(0, 0x1000, 8, false)
	st = s.Stats()
	if st.Misses != 3 {
		t.Errorf("misses = %d, want 3", st.Misses)
	}
	if st.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", st.Writebacks)
	}
}

func TestFalseSharingPingPong(t *testing.T) {
	// Two cores write disjoint words of one line: every write after the
	// first invalidates the other core's copy.
	s := sim2(t)
	const rounds = 100
	for i := 0; i < rounds; i++ {
		s.Access(0, 0x1000, 8, true)
		s.Access(1, 0x1008, 8, true)
	}
	st := s.Stats()
	if st.Invalidations != 2*rounds-1 {
		t.Errorf("invalidations = %d, want %d", st.Invalidations, 2*rounds-1)
	}
	if got := s.LineInvalidations(0x1000); got != 2*rounds-1 {
		t.Errorf("LineInvalidations = %d", got)
	}
}

func TestPaddedNoPingPong(t *testing.T) {
	// The fixed version: each core writes its own line. Two cold misses,
	// no invalidations — and far fewer cycles.
	s := sim2(t)
	for i := 0; i < 100; i++ {
		s.Access(0, 0x1000, 8, true)
		s.Access(1, 0x1040, 8, true)
	}
	st := s.Stats()
	if st.Invalidations != 0 {
		t.Errorf("invalidations = %d, want 0", st.Invalidations)
	}
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2", st.Misses)
	}
}

func TestFixingFalseSharingReducesCycles(t *testing.T) {
	buggy := sim2(t)
	fixed := sim2(t)
	for i := 0; i < 1000; i++ {
		buggy.Access(0, 0x1000, 8, true)
		buggy.Access(1, 0x1008, 8, true)
		fixed.Access(0, 0x1000, 8, true)
		fixed.Access(1, 0x1040, 8, true)
	}
	if buggy.ElapsedCycles() <= 2*fixed.ElapsedCycles() {
		t.Errorf("false sharing cycles %d not clearly above fixed %d",
			buggy.ElapsedCycles(), fixed.ElapsedCycles())
	}
}

func TestSharedReadersNoInvalidations(t *testing.T) {
	s := MustNew(Config{Cores: 4})
	for i := 0; i < 100; i++ {
		for c := 0; c < 4; c++ {
			s.Access(c, 0x2000, 8, false)
		}
	}
	st := s.Stats()
	if st.Invalidations != 0 {
		t.Errorf("read sharing invalidated: %+v", st)
	}
	if st.Misses != 4 {
		t.Errorf("misses = %d, want 4 cold", st.Misses)
	}
}

func TestUpgradeFromShared(t *testing.T) {
	s := sim2(t)
	s.Access(0, 0x1000, 8, false)
	s.Access(1, 0x1000, 8, false) // both shared
	s.Access(0, 0x1000, 8, true)  // upgrade: invalidate core 1
	st := s.Stats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	// No new data fetch was needed for the upgrade.
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2", st.Misses)
	}
}

func TestSpanningAccessTouchesBothLines(t *testing.T) {
	s := sim2(t)
	s.Access(0, 0x103C, 8, true) // crosses 0x1040 boundary
	if st := s.Stats(); st.Accesses != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 line accesses", st)
	}
}

func TestCoreWrapping(t *testing.T) {
	s := sim2(t)
	s.Access(2, 0x1000, 8, true)  // wraps to core 0
	s.Access(-1, 0x1040, 8, true) // wraps to core 1
	if s.Stats().Accesses != 2 {
		t.Error("wrapped cores not simulated")
	}
}

func TestHottestLines(t *testing.T) {
	s := sim2(t)
	for i := 0; i < 50; i++ {
		s.Access(0, 0x1000, 8, true)
		s.Access(1, 0x1000, 8, true)
	}
	for i := 0; i < 5; i++ {
		s.Access(0, 0x2000, 8, true)
		s.Access(1, 0x2000, 8, true)
	}
	hot := s.HottestLines(10)
	if len(hot) != 2 {
		t.Fatalf("hottest = %+v", hot)
	}
	if hot[0].Addr != 0x1000 || hot[0].Invalidations <= hot[1].Invalidations {
		t.Errorf("hottest = %+v", hot)
	}
	if got := s.HottestLines(1); len(got) != 1 {
		t.Errorf("truncation failed: %+v", got)
	}
}

func TestElapsedVsTotalCycles(t *testing.T) {
	s := sim2(t)
	s.Access(0, 0x1000, 8, true)
	s.Access(1, 0x2000, 8, true)
	if s.ElapsedCycles() >= s.TotalCycles() {
		t.Errorf("elapsed %d should be below total %d for balanced work",
			s.ElapsedCycles(), s.TotalCycles())
	}
	if s.CoreCycles(0) == 0 || s.CoreCycles(1) == 0 {
		t.Error("core cycles not accumulated")
	}
}

func TestReset(t *testing.T) {
	s := sim2(t)
	s.Access(0, 0x1000, 8, true)
	s.Access(1, 0x1000, 8, true)
	s.Reset()
	if s.Stats() != (Stats{}) {
		t.Error("stats not reset")
	}
	if s.ElapsedCycles() != 0 {
		t.Error("cycles not reset")
	}
	s.Access(0, 0x1000, 8, false)
	if s.Stats().Misses != 1 {
		t.Error("caches not cleared by reset")
	}
}

func TestZeroSizeIgnored(t *testing.T) {
	s := sim2(t)
	s.Access(0, 0x1000, 0, true)
	if s.Stats().Accesses != 0 {
		t.Error("zero-size access simulated")
	}
}

// Property: invalidations never exceed (cores-1) * writes, and hits+misses
// equals line-accesses.
func TestPropInvariants(t *testing.T) {
	f := func(ops []uint32) bool {
		s := MustNew(Config{Cores: 4})
		writes := uint64(0)
		for _, op := range ops {
			core := int(op % 4)
			addr := uint64(op>>2%64) * 8
			isWrite := op&0x10000 != 0
			if isWrite {
				writes++
			}
			s.Access(core, addr, 8, isWrite)
		}
		st := s.Stats()
		return st.Invalidations <= 3*writes && st.Hits+st.Misses == st.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: single-core streams never invalidate and never write back
// (unbounded cache).
func TestPropSingleCoreClean(t *testing.T) {
	f := func(ops []uint16) bool {
		s := MustNew(Config{Cores: 1})
		for _, op := range ops {
			s.Access(0, uint64(op%1024)*8, 8, op&0x8000 != 0)
		}
		st := s.Stats()
		return st.Invalidations == 0 && st.Writebacks == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	s := MustNew(Config{Cores: 2})
	s.Access(0, 0x1000, 8, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(0, 0x1000, 8, true)
	}
}

func BenchmarkPingPong(b *testing.B) {
	s := MustNew(Config{Cores: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(i&1, 0x1000+uint64(i&1)*8, 8, true)
	}
}
