// Package shadow implements PREDATOR's shadow memory (paper §2.3.2 and
// §2.4.1): because the simulated heap has a predefined base and fixed size,
// a line's metadata is found by pure address arithmetic. Each line has two
// fields, kept side by side in one Slot:
//
//   - CacheWrites: an atomic write counter, incremented until the
//     TrackingThreshold is crossed (the cheap pre-tracking phase);
//   - CacheTracking: an atomic pointer to detailed tracking state,
//     CAS-installed exactly once when the threshold is crossed.
//
// Slots live in fixed-size chunks of ChunkLines consecutive lines, reached
// through a directory with one pointer per chunk. A chunk is allocated by
// the first write count or track install on any of its lines, the way a
// native shadow region is demand-paged on first touch, so detector memory
// scales with the lines a program writes rather than with the heap. Reads
// of a line whose chunk is absent return zero values without allocating.
//
// The element type of CacheTracking is a type parameter so the detect
// package can store its own Track structure without an import cycle.
package shadow

import (
	"fmt"
	"sync/atomic"

	"predator/internal/cacheline"
)

// Mapping translates heap addresses to dense line indices.
type Mapping struct {
	base  uint64
	size  uint64
	geom  cacheline.Geometry
	lines uint64
}

// NewMapping builds the address mapping for a heap [base, base+size) under
// the given line geometry. base must be line-aligned.
func NewMapping(base, size uint64, geom cacheline.Geometry) (Mapping, error) {
	if base%geom.Size() != 0 {
		return Mapping{}, fmt.Errorf("shadow: base %#x not aligned to line size %d", base, geom.Size())
	}
	if size == 0 || size%geom.Size() != 0 {
		return Mapping{}, fmt.Errorf("shadow: size %d not a positive multiple of line size %d", size, geom.Size())
	}
	return Mapping{base: base, size: size, geom: geom, lines: size / geom.Size()}, nil
}

// Lines returns the number of cache lines covered.
func (m Mapping) Lines() uint64 { return m.lines }

// Geometry returns the line geometry.
func (m Mapping) Geometry() cacheline.Geometry { return m.geom }

// Base returns the covered range's starting address.
func (m Mapping) Base() uint64 { return m.base }

// Index maps an address to its dense line index. The second result is false
// when the address is outside the mapped range.
func (m Mapping) Index(addr uint64) (uint64, bool) {
	if addr < m.base || addr >= m.base+m.size {
		return 0, false
	}
	return (addr - m.base) >> m.geom.Shift(), true
}

// LineBase returns the first address of the line with the given dense index.
func (m Mapping) LineBase(index uint64) uint64 {
	return m.base + (index << m.geom.Shift())
}

// Contains reports whether addr is in the mapped range.
func (m Mapping) Contains(addr uint64) bool {
	return addr >= m.base && addr < m.base+m.size
}

// ChunkLines is the number of consecutive lines one shadow chunk covers:
// 512 slots of 16 bytes, 8 KiB a chunk. The directory costs 8 bytes per
// chunk, 16 KiB for a 64 MiB heap of 64-byte lines.
const ChunkLines = 512

// Slot is one line's shadow state: its write counter and its tracking
// pointer.
type Slot[T any] struct {
	writes atomic.Uint64
	track  atomic.Pointer[T]
}

// Writes returns the line's write count.
func (sl *Slot[T]) Writes() uint64 { return sl.writes.Load() }

// Track returns the line's tracking state, or nil if it has none.
func (sl *Slot[T]) Track() *T { return sl.track.Load() }

// chunk is the shadow state of ChunkLines consecutive lines.
type chunk[T any] [ChunkLines]Slot[T]

// Memory is the shadow state of a mapping's lines. T is the detailed
// per-line tracking state owned by the detection layer.
type Memory[T any] struct {
	mapping Mapping
	chunks  []atomic.Pointer[chunk[T]]
}

// NewMemory allocates the chunk directory for the mapping: one pointer per
// ChunkLines lines, so a 256 MiB heap with 64-byte lines costs 64 KiB up
// front. Chunks themselves are allocated on first write or track install.
func NewMemory[T any](mapping Mapping) *Memory[T] {
	return &Memory[T]{
		mapping: mapping,
		chunks:  make([]atomic.Pointer[chunk[T]], (mapping.Lines()+ChunkLines-1)/ChunkLines),
	}
}

// Mapping returns the address mapping.
func (s *Memory[T]) Mapping() Mapping { return s.mapping }

// Lookup returns a line's slot, or nil when no line in its chunk has been
// written or tracked. It never allocates, so one call serves every read of
// the line's state.
func (s *Memory[T]) Lookup(line uint64) *Slot[T] {
	c := s.chunks[line/ChunkLines].Load()
	if c == nil {
		return nil
	}
	return &c[line%ChunkLines]
}

// slot returns a line's slot, installing its chunk if it is absent. Racing
// installers CAS one fresh chunk each into the directory; the losers drop
// theirs and use the winner's, so no count or track lands in a chunk that
// is not published.
func (s *Memory[T]) slot(line uint64) *Slot[T] {
	p := &s.chunks[line/ChunkLines]
	c := p.Load()
	if c == nil {
		c = new(chunk[T])
		if !p.CompareAndSwap(nil, c) {
			c = p.Load()
		}
	}
	return &c[line%ChunkLines]
}

// Writes returns the current write count of a line.
func (s *Memory[T]) Writes(line uint64) uint64 {
	if sl := s.Lookup(line); sl != nil {
		return sl.Writes()
	}
	return 0
}

// IncWrites atomically increments a line's write counter and returns the new
// value. This is the fast-path operation of HandleAccess (paper Figure 1,
// ATOMIC_INCR).
func (s *Memory[T]) IncWrites(line uint64) uint64 { return s.slot(line).writes.Add(1) }

// ResetWrites zeroes a line's write counter (used when an unflagged object
// is freed and its metadata must not leak to the next occupant).
func (s *Memory[T]) ResetWrites(line uint64) {
	if sl := s.Lookup(line); sl != nil {
		sl.writes.Store(0)
	}
}

// Track returns the detailed tracking state of a line, or nil if the line
// has not crossed the tracking threshold.
func (s *Memory[T]) Track(line uint64) *T {
	if sl := s.Lookup(line); sl != nil {
		return sl.Track()
	}
	return nil
}

// InstallTrack CAS-installs detailed tracking state for a line (paper
// Figure 1, ATOMIC_CAS). It returns the state that is current after the
// call: the given one if the CAS won, or the previously installed one.
func (s *Memory[T]) InstallTrack(line uint64, t *T) *T {
	sl := s.slot(line)
	if sl.track.CompareAndSwap(nil, t) {
		return t
	}
	return sl.track.Load()
}

// ForEachTracked calls fn for every line with installed tracking state, in
// ascending line order. It visits installed chunks only.
func (s *Memory[T]) ForEachTracked(fn func(line uint64, t *T)) {
	for ci := range s.chunks {
		c := s.chunks[ci].Load()
		if c == nil {
			continue
		}
		base := uint64(ci) * ChunkLines
		for i := range c {
			if t := c[i].track.Load(); t != nil {
				fn(base+uint64(i), t)
			}
		}
	}
}
