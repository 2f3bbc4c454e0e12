// Package faultinject is a deterministic fault-injection harness for the
// resilience layer's chaos tests. Every fault source is derived from a
// seeded math/rand stream, so a failing chaos run reproduces exactly from
// its seed: corrupt trace bytes land on the same offsets and truncation cuts
// at the same length.
//
// The injector never touches its input in place — corruption returns a
// copy plus an account of every fault injected, which the chaos suite
// cross-checks against the salvage statistics the trace reader reports.
package faultinject

import "math/rand"

// Corruption records one injected trace fault.
type Corruption struct {
	Offset int    // byte offset of the corrupted byte
	Kind   string // "flip" | "zero" | "stomp"
	Old    byte
	New    byte
}

// Injector is a seeded source of deterministic faults.
type Injector struct {
	seed int64
	rnd  *rand.Rand
}

// New builds an injector; the same seed always produces the same faults.
func New(seed int64) *Injector {
	return &Injector{seed: seed, rnd: rand.New(rand.NewSource(seed))}
}

// Seed returns the injector's seed for reproduction messages.
func (in *Injector) Seed() int64 { return in.seed }

// Rand exposes the injector's deterministic random stream.
func (in *Injector) Rand() *rand.Rand { return in.rnd }

// Corrupt returns a copy of data with n single-byte corruptions injected at
// random offsets in [skip, len(data)), plus the record of what changed.
// Offsets are distinct; kinds rotate among a bit flip, zeroing, and stomping
// with a random byte. skip protects a header prefix. Fewer than n faults are
// injected when the corruptible region is smaller than n.
func (in *Injector) Corrupt(data []byte, skip, n int) ([]byte, []Corruption) {
	out := append([]byte(nil), data...)
	if skip < 0 {
		skip = 0
	}
	region := len(out) - skip
	if region <= 0 || n <= 0 {
		return out, nil
	}
	if n > region {
		n = region
	}
	seen := make(map[int]bool, n)
	var faults []Corruption
	for len(faults) < n {
		off := skip + in.rnd.Intn(region)
		if seen[off] {
			continue
		}
		seen[off] = true
		c := Corruption{Offset: off, Old: out[off]}
		switch len(faults) % 3 {
		case 0:
			c.Kind = "flip"
			c.New = c.Old ^ (1 << uint(in.rnd.Intn(8)))
		case 1:
			c.Kind = "zero"
			c.New = 0
		default:
			c.Kind = "stomp"
			c.New = byte(in.rnd.Intn(256))
		}
		out[off] = c.New
		faults = append(faults, c)
	}
	return out, faults
}

// CorruptAt returns a copy of data with the byte at each offset replaced by
// b — targeted corruption for tests that need an exact corrupt-region count
// rather than random placement.
func CorruptAt(data []byte, offsets []int, b byte) ([]byte, []Corruption) {
	out := append([]byte(nil), data...)
	var faults []Corruption
	for _, off := range offsets {
		if off < 0 || off >= len(out) {
			continue
		}
		faults = append(faults, Corruption{Offset: off, Kind: "stomp", Old: out[off], New: b})
		out[off] = b
	}
	return out, faults
}

// Truncate returns data cut at a random length in [minKeep, len(data)), and
// the cut offset.
func (in *Injector) Truncate(data []byte, minKeep int) ([]byte, int) {
	if minKeep < 0 {
		minKeep = 0
	}
	if minKeep >= len(data) {
		return append([]byte(nil), data...), len(data)
	}
	cut := minKeep + in.rnd.Intn(len(data)-minKeep)
	return append([]byte(nil), data[:cut]...), cut
}

// TinyHeapBytes is a heap size small enough that ordinary chaos workloads
// exhaust it, exercising alloc-failure paths (mem.ErrOutOfMemory) without
// waiting: one allocator chunk.
const TinyHeapBytes = 64 << 10
