// Package trace records and replays instrumented access streams. A trace
// captures everything the PREDATOR runtime consumes — accesses, allocations,
// frees, global registrations, thread naming — in a compact varint-encoded
// binary format, so a run can be replayed deterministically through a fresh
// runtime (possibly with different thresholds, sampling rates, or prediction
// settings) without re-executing the workload. This is the repository's
// deterministic-experiment substrate: cmd/predreplay and several tests use
// it to re-analyze one interleaving under many configurations.
//
// Readers come in two modes. The strict reader (NewReader) fails on the
// first malformed or truncated record with a typed *DecodeError carrying the
// byte offset and event index where decoding failed. The salvage reader
// (NewSalvageReader) is the resilience-layer mode for untrusted traces: it
// skips undecodable bytes, resynchronizes on the next decodable record, and
// accounts every skip in SalvageStats — it never fails mid-stream, so a
// truncated or bit-flipped trace still replays to completion.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Magic identifies trace files, followed by a format version byte.
var Magic = [8]byte{'P', 'R', 'E', 'D', 'T', 'R', 'C', '1'}

// headerSize is the encoded size of the magic plus the Header fields.
const headerSize = 8 + 20

// maxStringLen caps length-prefixed strings; longer claims are corruption.
const maxStringLen = 1 << 20

// maxRecordSize bounds one encoded record: opcode, up to three varints, a
// string length varint, and the string bytes. The reader's buffer is sized
// so any whole record fits in its window before it is consumed.
const maxRecordSize = 1 + 3*binary.MaxVarintLen64 + binary.MaxVarintLen64 + maxStringLen

// maxAccessRecord bounds one encoded read or write record: the opcode and
// three varints. The reader refills its window only when fewer bytes than
// this are left, so the short branch of decode never runs out of bytes.
const maxAccessRecord = 1 + 3*binary.MaxVarintLen64

// Op is an event discriminator.
type Op uint8

// Trace event kinds.
const (
	OpRead   Op = 1 // memory read: tid, addr, size
	OpWrite  Op = 2 // memory write: tid, addr, size
	OpAlloc  Op = 3 // allocation: tid, addr, size
	OpFree   Op = 4 // deallocation: addr
	OpGlobal Op = 5 // global registration: addr, size, name
	OpThread Op = 6 // thread naming: tid, name
)

// valid reports whether the opcode is a defined event kind.
func (op Op) valid() bool { return op >= OpRead && op <= OpThread }

// Event is one decoded trace record.
type Event struct {
	Op   Op
	TID  int32
	Addr uint64
	Size uint64
	Name string
}

// Header describes the recorded heap so replay can rebuild it.
type Header struct {
	HeapBase uint64
	HeapSize uint64
	LineSize uint32
}

// Typed decode failures.
var (
	// ErrBadMagic reports a non-trace input.
	ErrBadMagic = errors.New("trace: bad magic (not a PREDATOR trace)")
	// ErrUnknownOp reports an opcode outside the defined event kinds.
	ErrUnknownOp = errors.New("trace: unknown opcode")
	// ErrCorruptRecord reports a structurally invalid record (varint
	// overflow, implausible string length, out-of-range thread id).
	ErrCorruptRecord = errors.New("trace: corrupt record")
	// ErrTruncated reports a record cut off by the end of the input.
	ErrTruncated = errors.New("trace: truncated record")
)

// errShort is the internal "need more bytes" signal from the slice decoder;
// the reader translates it into ErrTruncated (strict) or a skip (salvage).
var errShort = errors.New("trace: short buffer")

// DecodeError locates a decode failure: the byte offset in the trace file
// where the failing record begins and the index of the event being decoded
// (0-based; equals the number of events decoded successfully before it).
type DecodeError struct {
	Offset int64
	Index  uint64
	Err    error
}

// Error formats the failure with its location.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("%v at byte offset %d (event index %d)", e.Err, e.Offset, e.Index)
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e *DecodeError) Unwrap() error { return e.Err }

// UnknownOpError is returned by Writer.WriteEvent for an undefined opcode —
// before anything is written, so a bad event cannot poison the stream.
type UnknownOpError struct{ Op Op }

// Error names the rejected opcode.
func (e *UnknownOpError) Error() string {
	return fmt.Sprintf("trace: unknown opcode %d (event not written)", e.Op)
}

// Unwrap ties the error to ErrUnknownOp.
func (e *UnknownOpError) Unwrap() error { return ErrUnknownOp }

// Writer streams events to an io.Writer. Writer is safe for concurrent use:
// events from concurrent threads are serialized in arrival order, which
// becomes the replay interleaving.
type Writer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf [2 * binary.MaxVarintLen64]byte
	n   uint64
}

// NewWriter writes the header and returns a Writer.
func NewWriter(w io.Writer, hdr Header) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(Magic[:]); err != nil {
		return nil, err
	}
	var tmp [20]byte
	binary.LittleEndian.PutUint64(tmp[0:], hdr.HeapBase)
	binary.LittleEndian.PutUint64(tmp[8:], hdr.HeapSize)
	binary.LittleEndian.PutUint32(tmp[16:], hdr.LineSize)
	if _, err := bw.Write(tmp[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// writeUvarint appends one varint. Caller must hold w.mu.
func (w *Writer) writeUvarint(v uint64) error {
	n := binary.PutUvarint(w.buf[:], v)
	_, err := w.w.Write(w.buf[:n])
	return err
}

// WriteEvent appends one event. An undefined opcode is rejected with a
// typed *UnknownOpError before any byte reaches the stream.
func (w *Writer) WriteEvent(e Event) error {
	if !e.Op.valid() {
		return &UnknownOpError{Op: e.Op}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.w.WriteByte(byte(e.Op)); err != nil {
		return err
	}
	switch e.Op {
	case OpRead, OpWrite, OpAlloc:
		if err := w.writeUvarint(uint64(e.TID)); err != nil {
			return err
		}
		if err := w.writeUvarint(e.Addr); err != nil {
			return err
		}
		if err := w.writeUvarint(e.Size); err != nil {
			return err
		}
	case OpFree:
		if err := w.writeUvarint(e.Addr); err != nil {
			return err
		}
	case OpGlobal:
		if err := w.writeUvarint(e.Addr); err != nil {
			return err
		}
		if err := w.writeUvarint(e.Size); err != nil {
			return err
		}
		if err := w.writeString(e.Name); err != nil {
			return err
		}
	case OpThread:
		if err := w.writeUvarint(uint64(e.TID)); err != nil {
			return err
		}
		if err := w.writeString(e.Name); err != nil {
			return err
		}
	}
	w.n++
	return nil
}

// writeString appends a length-prefixed string. Caller must hold w.mu.
func (w *Writer) writeString(s string) error {
	if err := w.writeUvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := w.w.WriteString(s)
	return err
}

// Events returns the number of events written.
func (w *Writer) Events() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Flush flushes buffered output; call it before closing the underlying file.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.w.Flush()
}

// HandleAccess implements instr.Sink so a Writer can record directly from
// the instrumentation front-end. Encoding errors are deferred to Flush.
func (w *Writer) HandleAccess(tid int, addr, size uint64, isWrite bool) {
	op := OpRead
	if isWrite {
		op = OpWrite
	}
	_ = w.WriteEvent(Event{Op: op, TID: int32(tid), Addr: addr, Size: size})
}

// SalvageStats accounts everything a salvage reader skipped or repaired.
// The zero value (Clean() == true) means the trace decoded perfectly.
type SalvageStats struct {
	Events         uint64 // events decoded successfully
	CorruptRegions uint64 // maximal runs of undecodable bytes skipped
	SkippedBytes   uint64 // total bytes skipped across all regions
	TruncatedTail  bool   // the trace ended mid-record
	HeaderDamaged  bool   // magic/header unusable; defaults substituted
	// FirstErrorOffset is the byte offset of the first undecodable byte,
	// or -1 when the trace was clean.
	FirstErrorOffset int64
	// Errors holds the first few decode failures (capped) for diagnostics.
	Errors []string
}

// maxSalvageErrors caps the retained per-region diagnostics.
const maxSalvageErrors = 16

// Clean reports whether nothing was skipped or repaired.
func (s *SalvageStats) Clean() bool {
	return s.CorruptRegions == 0 && !s.TruncatedTail && !s.HeaderDamaged
}

// String summarizes the salvage for degradation banners.
func (s *SalvageStats) String() string {
	if s.Clean() {
		return fmt.Sprintf("clean: %d events", s.Events)
	}
	msg := fmt.Sprintf("salvaged %d events; %d corrupt region(s), %d byte(s) skipped",
		s.Events, s.CorruptRegions, s.SkippedBytes)
	if s.TruncatedTail {
		msg += "; truncated tail"
	}
	if s.HeaderDamaged {
		msg += "; header damaged (defaults substituted)"
	}
	return msg
}

// Reader streams events back from a trace. It decodes each record straight
// from a window over its buffered bytes into one current-record slot, so a
// record costs no copy until Next returns the slot.
type Reader struct {
	r *bufio.Reader
	// win is the window peeked from r; win[pos:] is not yet decoded. The
	// bytes before pos are discarded from r at the next refill.
	win []byte
	pos int
	// rerr is the error of the last refill's Peek: nil when the window
	// filled r's buffer, io.EOF when it reached the end of the input.
	rerr    error
	ev      Event // the current record
	hdr     Header
	off     int64  // byte offset of the next undecoded byte
	index   uint64 // events decoded so far
	salvage bool
	stats   SalvageStats
	// tailSkip remembers whether the bytes immediately before EOF were
	// skipped, which is what distinguishes a truncated tail from a clean
	// end after an interior corruption.
	tailSkip bool
}

// NewReader validates the header and returns a strict Reader: the first
// malformed or truncated record fails Next with a *DecodeError.
func NewReader(r io.Reader) (*Reader, error) {
	br := newBuffer(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	var tmp [20]byte
	if _, err := io.ReadFull(br, tmp[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	rd := &Reader{r: br, off: headerSize, hdr: decodeHeader(tmp[:])}
	rd.stats.FirstErrorOffset = -1
	return rd, nil
}

// NewSalvageReader returns a Reader in salvage mode: undecodable bytes are
// skipped and accounted in Stats instead of failing Next. A damaged or
// truncated header is tolerated too — the paper-default heap geometry is
// substituted and the damage is flagged in Stats. Only I/O errors from the
// underlying reader are fatal.
func NewSalvageReader(r io.Reader) (*Reader, error) {
	br := newBuffer(r)
	rd := &Reader{r: br, salvage: true}
	rd.stats.FirstErrorOffset = -1
	buf, perr := br.Peek(headerSize)
	if perr != nil && perr != io.EOF {
		return nil, fmt.Errorf("trace: reading header: %w", perr)
	}
	if len(buf) == headerSize && bytes.Equal(buf[:8], Magic[:]) {
		rd.hdr = decodeHeader(buf[8:])
		if _, err := br.Discard(headerSize); err != nil {
			return nil, err
		}
		rd.off = headerSize
		return rd, nil
	}
	// Header unusable: substitute defaults and let the scan loop skip the
	// damaged prefix as an ordinary corrupt region.
	rd.stats.HeaderDamaged = true
	rd.hdr = defaultHeader()
	return rd, nil
}

// newBuffer returns the buffered reader a Reader decodes from: one that
// holds maxRecordSize bytes, enough for any record, or only the rest of the
// input when r reports a shorter length (Len() int, as *bytes.Reader,
// *bytes.Buffer and *strings.Reader do), so that opening a short trace
// allocates little more than the trace holds. It holds a header at least,
// which a salvage reader peeks whole.
func newBuffer(r io.Reader) *bufio.Reader {
	size := maxRecordSize
	if l, ok := r.(interface{ Len() int }); ok && l.Len() < size {
		size = max(l.Len(), headerSize)
	}
	return bufio.NewReaderSize(r, size)
}

// decodeHeader parses the 20 fixed header bytes after the magic.
func decodeHeader(b []byte) Header {
	return Header{
		HeapBase: binary.LittleEndian.Uint64(b[0:]),
		HeapSize: binary.LittleEndian.Uint64(b[8:]),
		LineSize: binary.LittleEndian.Uint32(b[16:]),
	}
}

// defaultHeader is the substitute geometry for salvaged traces whose header
// is unusable: the paper's 256 MiB heap at 0x400000000 with 64-byte lines
// (mirrors mem.DefaultBase/DefaultSize; duplicated to keep this file free of
// heap imports).
func defaultHeader() Header {
	return Header{HeapBase: 0x400000000, HeapSize: 256 << 20, LineSize: 64}
}

// Header returns the trace's heap description.
func (r *Reader) Header() Header { return r.hdr }

// Offset returns the byte offset of the next undecoded byte.
func (r *Reader) Offset() int64 { return r.off }

// Index returns how many events have been decoded so far.
func (r *Reader) Index() uint64 { return r.index }

// Stats returns the salvage account so far. Meaningful for salvage readers;
// a strict reader reports a clean zero value.
func (r *Reader) Stats() SalvageStats { return r.stats }

// Next decodes one event; it returns io.EOF at the end of the trace. In
// strict mode a malformed or truncated record fails with a *DecodeError; in
// salvage mode it is skipped (accounted in Stats) and Next keeps scanning
// for the next decodable record.
func (r *Reader) Next() (Event, error) {
	if err := r.advance(); err != nil {
		return Event{}, err
	}
	return r.ev, nil
}

// advance decodes the next event into r.ev, with Next's errors. Replay
// reads r.ev in place.
func (r *Reader) advance() error {
	if r.salvage {
		return r.nextSalvage()
	}
	if len(r.win)-r.pos < maxAccessRecord && !r.refill() {
		return r.endErr()
	}
	n, err := r.decode()
	if err == errShort {
		if r.rerr != nil && r.rerr != io.EOF {
			return r.rerr
		}
		err = fmt.Errorf("%w: %v", ErrTruncated, io.ErrUnexpectedEOF)
	}
	if err != nil {
		return &DecodeError{Offset: r.off, Index: r.index, Err: err}
	}
	r.commit(n)
	return nil
}

// nextSalvage scans for the next decodable record, skipping and accounting
// undecodable bytes.
func (r *Reader) nextSalvage() error {
	inRegion := false
	for {
		if len(r.win)-r.pos < maxAccessRecord && !r.refill() {
			if r.tailSkip {
				r.stats.TruncatedTail = true
			}
			return r.endErr()
		}
		n, err := r.decode()
		if err == nil {
			r.commit(n)
			r.stats.Events++
			r.tailSkip = false
			return nil
		}
		if err == errShort && r.rerr != nil && r.rerr != io.EOF {
			return r.rerr
		}
		// Malformed, or truncated at EOF: open (or extend) a corrupt
		// region and resynchronize one byte at a time.
		if !inRegion {
			inRegion = true
			r.stats.CorruptRegions++
			if r.stats.FirstErrorOffset < 0 {
				r.stats.FirstErrorOffset = r.off
			}
			if len(r.stats.Errors) < maxSalvageErrors {
				r.stats.Errors = append(r.stats.Errors,
					fmt.Sprintf("byte offset %d (event index %d): %v", r.off, r.index, err))
			}
		}
		r.pos++
		r.off++
		r.stats.SkippedBytes++
		r.tailSkip = true
	}
}

// refill discards the decoded bytes of the window and peeks as many bytes
// as r buffers, so the window starts at the next undecoded byte. It reports
// whether any byte is left. Peeking more than the buffer holds would fail
// with bufio.ErrBufferFull, which would read as an I/O error.
func (r *Reader) refill() bool {
	_, _ = r.r.Discard(r.pos) // cannot fail: the bytes were peeked
	r.pos = 0
	r.win, r.rerr = r.r.Peek(r.r.Size())
	return len(r.win) > 0
}

// endErr is the error for an input with no byte left: io.EOF, or the error
// that stopped reading it.
func (r *Reader) endErr() error {
	if r.rerr == nil {
		return io.EOF
	}
	return r.rerr
}

// decode decodes the record at the head of the non-empty window into r.ev
// and returns its encoded length, errShort when the input ends inside it, or
// a malformed-record error. A read or write record with a whole access
// record's bytes in the window takes the short branch; every other record,
// and any it cannot decode, takes decodeEvent, refilling once when the
// record may reach past the window.
func (r *Reader) decode() (int, error) {
	w := r.win[r.pos:]
	if op := Op(w[0]); (op == OpRead || op == OpWrite) && len(w) >= maxAccessRecord {
		if tid, i := binary.Uvarint(w[1:]); i > 0 && tid <= math.MaxInt32 {
			i++
			if addr, j := binary.Uvarint(w[i:]); j > 0 {
				i += j
				if size, k := binary.Uvarint(w[i:]); k > 0 {
					r.ev = Event{Op: op, TID: int32(tid), Addr: addr, Size: size}
					return i + k, nil
				}
			}
		}
	}
	e, n, err := decodeEvent(w)
	if err == errShort && r.pos > 0 {
		r.refill()
		e, n, err = decodeEvent(r.win)
	}
	r.ev = e
	return n, err
}

// commit consumes n decoded bytes.
func (r *Reader) commit(n int) {
	r.pos += n
	r.off += int64(n)
	r.index++
}

// decodeEvent decodes one record from the head of buf. It returns the event
// and its encoded length, errShort when buf ends before the record does, or
// a malformed-record error.
func decodeEvent(buf []byte) (Event, int, error) {
	op := Op(buf[0])
	if !op.valid() {
		return Event{}, 0, fmt.Errorf("%w %d", ErrUnknownOp, uint8(op))
	}
	e := Event{Op: op}
	i := 1
	switch op {
	case OpRead, OpWrite, OpAlloc:
		tid, err := decodeUvarint(buf, &i)
		if err != nil {
			return Event{}, 0, err
		}
		if tid > math.MaxInt32 {
			return Event{}, 0, fmt.Errorf("%w: thread id %d out of range", ErrCorruptRecord, tid)
		}
		e.TID = int32(tid)
		if e.Addr, err = decodeUvarint(buf, &i); err != nil {
			return Event{}, 0, err
		}
		if e.Size, err = decodeUvarint(buf, &i); err != nil {
			return Event{}, 0, err
		}
	case OpFree:
		var err error
		if e.Addr, err = decodeUvarint(buf, &i); err != nil {
			return Event{}, 0, err
		}
	case OpGlobal:
		var err error
		if e.Addr, err = decodeUvarint(buf, &i); err != nil {
			return Event{}, 0, err
		}
		if e.Size, err = decodeUvarint(buf, &i); err != nil {
			return Event{}, 0, err
		}
		if e.Name, err = decodeString(buf, &i); err != nil {
			return Event{}, 0, err
		}
	case OpThread:
		tid, err := decodeUvarint(buf, &i)
		if err != nil {
			return Event{}, 0, err
		}
		if tid > math.MaxInt32 {
			return Event{}, 0, fmt.Errorf("%w: thread id %d out of range", ErrCorruptRecord, tid)
		}
		e.TID = int32(tid)
		if e.Name, err = decodeString(buf, &i); err != nil {
			return Event{}, 0, err
		}
	}
	return e, i, nil
}

// decodeUvarint decodes one varint at *i, advancing it.
func decodeUvarint(buf []byte, i *int) (uint64, error) {
	v, n := binary.Uvarint(buf[*i:])
	if n == 0 {
		return 0, errShort
	}
	if n < 0 {
		return 0, fmt.Errorf("%w: varint overflow", ErrCorruptRecord)
	}
	*i += n
	return v, nil
}

// decodeString decodes a length-prefixed string at *i, advancing it.
func decodeString(buf []byte, i *int) (string, error) {
	n, err := decodeUvarint(buf, i)
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("%w: implausible string length %d", ErrCorruptRecord, n)
	}
	if uint64(len(buf)-*i) < n {
		return "", errShort
	}
	s := string(buf[*i : *i+int(n)])
	*i += int(n)
	return s, nil
}
