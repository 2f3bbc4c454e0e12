// Package cachesim is a deterministic multi-core cache simulator: per-core
// private caches kept coherent with a MESI protocol, plus a simple cycle
// cost model. The paper evaluates PREDATOR on real hardware, where false
// sharing manifests as wall-clock slowdowns; this simulator is the
// deterministic stand-in substrate (see DESIGN.md) used to project the
// performance impact of detected/predicted false sharing — the Figure 2
// alignment-sensitivity curve and the Table 1 improvement shapes — on any
// host, independent of the machine the test suite happens to run on.
package cachesim

import (
	"fmt"

	"predator/internal/cacheline"
)

// State is a MESI coherence state.
type State uint8

// MESI states. Invalid lines are simply absent from the cache.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// CostModel assigns cycle costs to memory events. Defaults approximate a
// small multicore: L1 hit 1 cycle, memory miss 100, coherence invalidation
// adds a 40-cycle penalty to the *writer* (the RFO round trip), and a
// remote-dirty miss costs an extra writeback delay.
type CostModel struct {
	HitCycles        uint64
	MissCycles       uint64
	InvalidateCycles uint64
	WritebackCycles  uint64
}

// DefaultCostModel returns the cycle costs every simulator uses.
func DefaultCostModel() CostModel {
	return CostModel{HitCycles: 1, MissCycles: 100, InvalidateCycles: 40, WritebackCycles: 60}
}

// Config configures a simulator.
type Config struct {
	Cores    int // number of cores (private caches); default 8
	LineSize int // cache line size in bytes; default 64
}

// Stats aggregates simulator counters.
type Stats struct {
	Accesses      uint64
	Hits          uint64
	Misses        uint64 // cold + coherence
	Invalidations uint64 // lines invalidated in remote caches
	Writebacks    uint64 // dirty lines written back on a remote access
}

// cache is one core's private cache, unbounded: the coherence state of each
// resident line.
type cache struct {
	lines  map[uint64]State
	cycles uint64
}

func newCache() *cache { return &cache{lines: make(map[uint64]State)} }

// Sim is a deterministic MESI simulator. It is NOT safe for concurrent use:
// feed it a single interleaved access stream (that is the point — the
// interleaving is the experiment's controlled variable).
type Sim struct {
	cost    CostModel
	geom    cacheline.Geometry
	cores   []*cache
	stats   Stats
	perLine map[uint64]uint64 // line -> invalidations caused on it
}

// New creates a simulator.
func New(cfg Config) (*Sim, error) {
	if cfg.Cores == 0 {
		cfg.Cores = 8
	}
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("cachesim: need at least one core, got %d", cfg.Cores)
	}
	if cfg.LineSize == 0 {
		cfg.LineSize = cacheline.DefaultSize
	}
	geom, err := cacheline.NewGeometry(cfg.LineSize)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		cost:    DefaultCostModel(),
		geom:    geom,
		cores:   make([]*cache, cfg.Cores),
		perLine: make(map[uint64]uint64),
	}
	for i := range s.cores {
		s.cores[i] = newCache()
	}
	return s, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *Sim {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Cores returns the number of simulated cores.
func (s *Sim) Cores() int { return len(s.cores) }

// Geometry returns the simulated line geometry.
func (s *Sim) Geometry() cacheline.Geometry { return s.geom }

// Access simulates one access by the given core. Accesses spanning line
// boundaries are split. Core indices wrap modulo the core count so callers
// can pass thread IDs directly.
func (s *Sim) Access(core int, addr, size uint64, isWrite bool) {
	if size == 0 {
		return
	}
	core = ((core % len(s.cores)) + len(s.cores)) % len(s.cores)
	first := s.geom.Index(addr)
	last := s.geom.Index(addr + size - 1)
	for line := first; line <= last; line++ {
		s.accessLine(core, line, isWrite)
	}
}

// accessLine simulates one access to one line.
func (s *Sim) accessLine(core int, line uint64, isWrite bool) {
	s.stats.Accesses++
	c := s.cores[core]
	st, resident := c.lines[line]

	if resident && (isWrite && st != Shared || !isWrite) {
		// Hit: M/E for writes (E silently upgrades to M), any for reads.
		s.stats.Hits++
		c.cycles += s.cost.HitCycles
		if isWrite {
			c.lines[line] = Modified
		}
		return
	}

	if resident {
		// Upgrade miss, a write to a Shared copy: invalidate the other
		// sharers.
		s.invalidateOthers(core, line)
		c.lines[line] = Modified
		s.stats.Hits++ // data already present; only an upgrade transaction
		c.cycles += s.cost.HitCycles + s.cost.InvalidateCycles
		return
	}

	// Miss: fill from memory.
	s.stats.Misses++
	c.cycles += s.cost.MissCycles
	if isWrite {
		// Read-for-ownership: invalidate every other copy.
		if s.invalidateOthers(core, line) {
			c.cycles += s.cost.InvalidateCycles
		}
		c.lines[line] = Modified
		return
	}
	// Read miss: downgrade a remote Modified copy, share with others.
	st = Exclusive
	for i, other := range s.cores {
		if i == core {
			continue
		}
		if ost, ok := other.lines[line]; ok {
			st = Shared
			if ost == Modified {
				s.stats.Writebacks++
				c.cycles += s.cost.WritebackCycles
			}
			other.lines[line] = Shared
		}
	}
	c.lines[line] = st
}

// invalidateOthers removes all remote copies of a line, counting
// invalidations and writebacks. It reports whether any copy existed.
func (s *Sim) invalidateOthers(core int, line uint64) bool {
	any := false
	for i, other := range s.cores {
		if i == core {
			continue
		}
		if st, ok := other.lines[line]; ok {
			any = true
			if st == Modified {
				s.stats.Writebacks++
			}
			delete(other.lines, line)
			s.stats.Invalidations++
			s.perLine[line]++
		}
	}
	return any
}

// Stats returns the aggregate counters.
func (s *Sim) Stats() Stats { return s.stats }

// LineInvalidations returns how many invalidations were caused on the line
// containing addr.
func (s *Sim) LineInvalidations(addr uint64) uint64 {
	return s.perLine[s.geom.Index(addr)]
}

// HottestLines returns up to n (line base address, invalidations) pairs with
// the most invalidations, descending.
func (s *Sim) HottestLines(n int) []LineCount {
	out := make([]LineCount, 0, len(s.perLine))
	for line, inv := range s.perLine {
		out = append(out, LineCount{Addr: s.geom.Base(line), Invalidations: inv})
	}
	// Insertion-sort-ish selection is fine at simulation scale.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].Invalidations > out[j-1].Invalidations ||
			out[j].Invalidations == out[j-1].Invalidations && out[j].Addr < out[j-1].Addr); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// LineCount pairs a line with its invalidation count.
type LineCount struct {
	Addr          uint64
	Invalidations uint64
}

// CoreCycles returns one core's accumulated cycles.
func (s *Sim) CoreCycles(core int) uint64 { return s.cores[core].cycles }

// ElapsedCycles models the parallel program's runtime: the maximum cycle
// count over all cores (cores run concurrently; the slowest one finishes
// last).
func (s *Sim) ElapsedCycles() uint64 {
	var maxC uint64
	for _, c := range s.cores {
		if c.cycles > maxC {
			maxC = c.cycles
		}
	}
	return maxC
}

// TotalCycles returns the sum of all cores' cycles (aggregate work).
func (s *Sim) TotalCycles() uint64 {
	var sum uint64
	for _, c := range s.cores {
		sum += c.cycles
	}
	return sum
}

// Reset clears all caches and counters, keeping the configuration.
func (s *Sim) Reset() {
	for i := range s.cores {
		s.cores[i] = newCache()
	}
	s.stats = Stats{}
	s.perLine = make(map[uint64]uint64)
}
