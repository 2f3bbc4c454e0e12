// Package flight is PREDATOR's flight recorder: a lock-free, fixed-depth
// ring buffer of the most recent sampled accesses on one tracked cache line.
// The paper's report (§2.3–§2.4) says *which* line and callsite are falsely
// shared but discards *why* — the per-thread interleaving that drove the line
// over the report threshold is folded into counters as it is counted. A
// Recorder keeps the tail of that interleaving: thread, word offset,
// read/write, a global access clock, and whether the access invalidated the
// line. Recorders are armed only when a line is promoted to detailed
// tracking (the TrackingThreshold crossing), so cold lines pay nothing. A
// record costs three locked atomic operations (the shared clock add, the
// ring cursor add, and the slot store), so hot lines record every
// invalidating access but only one in RecordStride of the others, which
// keeps recording inside the same 5% overhead envelope the rest of the
// observability stack honors.
//
// Every record is packed into a single uint64 and published with one atomic
// store, so concurrent writers never tear a record and readers may snapshot a
// live ring at any time (including under the race detector). The clock is a
// logical access clock shared by every recorder of one runtime: it totally
// orders recorded accesses across lines and threads, which is exactly the
// interleaving evidence the report's Provenance block and the Perfetto
// timeline exporter (internal/obs/traceout) need. Logical time also makes
// timelines from deterministic-mode runs byte-for-byte reproducible, which
// wall clocks never are.
package flight

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
)

// DefaultDepth is the ring depth used when a runtime enables flight
// recording without choosing one.
const DefaultDepth = 64

// MaxDepth bounds per-line ring memory (MaxDepth * 8 bytes per line).
const MaxDepth = 1 << 16

// RecordStride is the decimation callers apply to non-invalidating accesses
// (a power of two): one in RecordStride ordinary accesses is recorded, while
// invalidating accesses are always recorded. A Record costs three locked
// atomic operations — clock tick, ring cursor, slot store — 27–29 ns in
// isolation and about 40 ns inside the detector's hot loop on a 2-CPU Xeon
// (Go 1.24), so paying it on every sampled access would break the
// detector's 5% observability overhead envelope. On that host recording
// cost the hot loop 6–10% at stride 8 and 2–4% at stride 32, of which 1–3%
// is arming the recorders; at 32 the worst case is about 1.3 ns per access
// (DESIGN §7, "Decimation").
const RecordStride = 32

// Record packing. A record is one uint64:
//
//	bits  0..39  clock        (40-bit logical access clock, starts at 1)
//	bits 40..47  word index   (8 bits; clamped)
//	bits 48..61  thread id    (14 bits; clamped)
//	bit  62      write
//	bit  63      invalidation
//
// Clock 0 never occurs in a valid record, so a zero slot always means "not
// yet written" and snapshots can skip it without a separate occupancy word.
const (
	clockBits = 40
	clockMask = (1 << clockBits) - 1
	wordShift = clockBits
	wordMask  = 0xff
	tidShift  = wordShift + 8
	tidMask   = 0x3fff
	writeBit  = 1 << 62
	invalBit  = 1 << 63
)

// Clock is the shared logical access clock: one per runtime, referenced by
// every recorder the runtime arms. Next is one atomic add; Now is one atomic
// load. All methods are nil-safe so unarmed code paths need no branches.
type Clock struct {
	v atomic.Uint64
}

// Next advances the clock and returns the new tick (ticks start at 1).
func (c *Clock) Next() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Add(1)
}

// Now returns the current tick without advancing (0 on a nil clock).
func (c *Clock) Now() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Record is one unpacked flight-recorder entry.
type Record struct {
	Clock        uint64 `json:"clock"` // global access-clock tick
	TID          int    `json:"tid"`
	Word         int    `json:"word"` // word index within the recorded span
	Write        bool   `json:"write,omitempty"`
	Invalidation bool   `json:"invalidation,omitempty"`
}

// pack encodes a record into its single-word wire form.
func pack(clock uint64, tid, word int, write, invalidation bool) uint64 {
	if tid < 0 {
		tid = 0
	}
	v := clock&clockMask |
		uint64(word&wordMask)<<wordShift |
		uint64(tid&tidMask)<<tidShift
	if write {
		v |= writeBit
	}
	if invalidation {
		v |= invalBit
	}
	return v
}

// unpack decodes a packed record.
func unpack(v uint64) Record {
	return Record{
		Clock:        v & clockMask,
		Word:         int(v >> wordShift & wordMask),
		TID:          int(v >> tidShift & tidMask),
		Write:        v&writeBit != 0,
		Invalidation: v&invalBit != 0,
	}
}

// RoundDepth normalizes a configured ring depth: values <= 0 select
// DefaultDepth, everything else is rounded up to the next power of two and
// clamped to MaxDepth (powers of two turn the ring index into a mask).
func RoundDepth(d int) int {
	if d <= 0 {
		return DefaultDepth
	}
	if d > MaxDepth {
		return MaxDepth
	}
	p := 1
	for p < d {
		p <<= 1
	}
	return p
}

// Recorder is the per-tracked-line ring. Writers claim a slot with one
// atomic add on the cursor and publish the packed record with one atomic
// store; the newest depth records win. All methods are nil-safe: an unarmed
// line holds a nil recorder and pays a single pointer check.
type Recorder struct {
	clock *Clock
	mask  uint64
	cur   atomic.Uint64
	slots []atomic.Uint64
}

// NewRecorder builds a ring of RoundDepth(depth) slots ticking the shared
// clock.
func NewRecorder(clock *Clock, depth int) *Recorder {
	d := RoundDepth(depth)
	return &Recorder{clock: clock, mask: uint64(d - 1), slots: make([]atomic.Uint64, d)}
}

// Record notes one sampled access and returns its clock tick. Safe for
// concurrent writers; no-op (returning 0) on a nil recorder.
func (r *Recorder) Record(tid, word int, write, invalidation bool) uint64 {
	if r == nil {
		return 0
	}
	c := r.clock.Next()
	i := r.cur.Add(1) - 1
	r.slots[i&r.mask].Store(pack(c, tid, word, write, invalidation))
	return c
}

// Clock returns the recorder's shared clock (nil on a nil recorder).
func (r *Recorder) Clock() *Clock {
	if r == nil {
		return nil
	}
	return r.clock
}

// Depth returns the ring's slot count (0 on a nil recorder).
func (r *Recorder) Depth() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Recorded returns how many records were ever written (0 on nil); the ring
// retains the newest min(Recorded, Depth).
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.cur.Load()
}

// Snapshot copies the ring's current contents, oldest first (ascending
// clock). It is safe concurrently with writers: each slot is read with one
// atomic load, so a snapshot is a set of individually-consistent records —
// a slot being overwritten mid-snapshot yields either its old or its new
// record, never a torn one. Nil-safe (returns nil).
func (r *Recorder) Snapshot() []Record {
	if r == nil {
		return nil
	}
	out := make([]Record, 0, len(r.slots))
	for i := range r.slots {
		v := r.slots[i].Load()
		if v&clockMask == 0 {
			continue
		}
		out = append(out, unpack(v))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Clock < out[j].Clock })
	return out
}

// DigestInfo summarizes a record sequence's thread interleaving: a stable
// hash of the thread order (two runs interleaving identically digest
// identically), the set of participating threads, per-thread record counts,
// and how many adjacent-record thread switches occurred — the hand-offs that
// generate invalidation traffic.
type DigestInfo struct {
	Hash      string      `json:"hash"`
	Threads   []int       `json:"threads"`
	PerThread map[int]int `json:"per_thread,omitempty"`
	Switches  int         `json:"switches"`
	Records   int         `json:"records"`
}

// Digest computes the interleaving digest of records (which must be in clock
// order, as Snapshot returns them).
func Digest(records []Record) DigestInfo {
	h := fnv.New64a()
	per := make(map[int]int)
	switches := 0
	prev := -1
	var buf [4]byte
	for i, rec := range records {
		buf[0] = byte(rec.TID)
		buf[1] = byte(rec.TID >> 8)
		buf[2] = byte(rec.TID >> 16)
		buf[3] = byte(rec.TID >> 24)
		_, _ = h.Write(buf[:])
		per[rec.TID]++
		if i > 0 && rec.TID != prev {
			switches++
		}
		prev = rec.TID
	}
	d := DigestInfo{
		PerThread: per,
		Switches:  switches,
		Records:   len(records),
	}
	if len(records) > 0 {
		d.Hash = fmt.Sprintf("%016x", h.Sum64())
	}
	for tid := range per {
		d.Threads = append(d.Threads, tid)
	}
	sort.Ints(d.Threads)
	if len(d.PerThread) == 0 {
		d.PerThread = nil
	}
	return d
}
