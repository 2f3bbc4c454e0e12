package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary record bytes to both readers. After a valid
// header, the strict reader must return exactly the events that decodeEvent,
// applied record by record to the whole input, returns, then fail where it
// fails: the same error at the same byte offset and event index. The salvage
// reader must drain any input, header or not, to its last byte. The seed
// corpus is in testdata/fuzz/FuzzReader.
func FuzzReader(f *testing.F) {
	var hdr bytes.Buffer
	w, err := NewWriter(&hdr, testHeader())
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		data := append(hdr.Bytes()[:headerSize:headerSize], body...)

		var want []Event
		off := headerSize
		var wantErr error
		for off < len(data) {
			e, n, err := decodeEvent(data[off:])
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, e)
			off += n
		}

		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var got []Event
		for {
			e, err := r.Next()
			if err == nil {
				got = append(got, e)
				if len(got) > len(want) || e != want[len(got)-1] {
					t.Fatalf("event %d = %+v, reference decodes %d event(s): %+v", len(got)-1, e, len(want), want)
				}
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("reader stopped after %d event(s) with %v, reference decodes %d", len(got), err, len(want))
			}
			if wantErr == nil {
				if err != io.EOF || r.Offset() != int64(len(data)) {
					t.Fatalf("clean input ended with %v at offset %d of %d", err, r.Offset(), len(data))
				}
				break
			}
			var de *DecodeError
			if !errors.As(err, &de) || de.Offset != int64(off) || de.Index != uint64(len(want)) {
				t.Fatalf("err = %v, want a DecodeError at offset %d index %d", err, off, len(want))
			}
			if wantErr == errShort {
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("err = %v, want ErrTruncated", err)
				}
			} else if de.Err.Error() != wantErr.Error() {
				t.Fatalf("err = %v, reference %v", de.Err, wantErr)
			}
			break
		}

		for i, in := range [][]byte{data, body} {
			sr, err := NewSalvageReader(bytes.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := sr.Next(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatalf("salvage Next: %v", err)
				}
			}
			if sr.Offset() != int64(len(in)) {
				t.Fatalf("salvage reader ended at offset %d of %d", sr.Offset(), len(in))
			}
			if s := sr.Stats(); i == 0 && wantErr == nil && (!s.Clean() || s.Events != uint64(len(want))) {
				t.Fatalf("salvage of a clean input: %+v", s)
			}
		}
	})
}
