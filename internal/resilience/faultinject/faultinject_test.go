package faultinject

import (
	"bytes"
	"reflect"
	"testing"
)

func sampleData() []byte {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	return data
}

func TestSameSeedSameFaults(t *testing.T) {
	data := sampleData()
	a, fa := New(42).Corrupt(data, 28, 10)
	b, fb := New(42).Corrupt(data, 28, 10)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different corrupted bytes")
	}
	if !reflect.DeepEqual(fa, fb) {
		t.Errorf("same seed produced different fault records:\n%+v\n%+v", fa, fb)
	}
	c, _ := New(43).Corrupt(data, 28, 10)
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical corruption")
	}
}

func TestCorruptRespectsSkipAndCount(t *testing.T) {
	data := sampleData()
	const skip, n = 28, 12
	out, faults := New(7).Corrupt(data, skip, n)
	if len(faults) != n {
		t.Fatalf("injected %d faults, want %d", len(faults), n)
	}
	if !bytes.Equal(out[:skip], data[:skip]) {
		t.Error("header prefix was corrupted despite skip")
	}
	seen := map[int]bool{}
	for _, f := range faults {
		if f.Offset < skip || f.Offset >= len(data) {
			t.Errorf("fault offset %d outside [%d, %d)", f.Offset, skip, len(data))
		}
		if seen[f.Offset] {
			t.Errorf("offset %d corrupted twice", f.Offset)
		}
		seen[f.Offset] = true
		if out[f.Offset] != f.New {
			t.Errorf("offset %d: byte %#x, record says %#x", f.Offset, out[f.Offset], f.New)
		}
	}
	// Input must be untouched.
	if !bytes.Equal(data, sampleData()) {
		t.Error("Corrupt modified its input")
	}
}

func TestCorruptTinyRegion(t *testing.T) {
	data := sampleData()
	_, faults := New(1).Corrupt(data, len(data)-3, 100)
	if len(faults) != 3 {
		t.Errorf("injected %d faults in a 3-byte region, want 3", len(faults))
	}
	out, faults := New(1).Corrupt(data, len(data), 5)
	if len(faults) != 0 || !bytes.Equal(out, data) {
		t.Errorf("empty region: faults=%d", len(faults))
	}
}

func TestCorruptAtExactOffsets(t *testing.T) {
	data := sampleData()
	offsets := []int{30, 99, -1, 1000, 30}
	out, faults := CorruptAt(data, offsets, 0xFF)
	if len(faults) != 3 { // -1 and 1000 skipped; 30 hit twice is two records
		t.Fatalf("faults = %d, want 3", len(faults))
	}
	if out[30] != 0xFF || out[99] != 0xFF {
		t.Errorf("targeted bytes not stomped: %#x %#x", out[30], out[99])
	}
	if faults[0].Old != data[30] {
		t.Errorf("Old = %#x, want %#x", faults[0].Old, data[30])
	}
}

func TestTruncateBounds(t *testing.T) {
	data := sampleData()
	for seed := int64(0); seed < 20; seed++ {
		cut, at := New(seed).Truncate(data, 28)
		if at < 28 || at >= len(data) {
			t.Fatalf("seed %d: cut at %d outside [28, %d)", seed, at, len(data))
		}
		if len(cut) != at || !bytes.Equal(cut, data[:at]) {
			t.Fatalf("seed %d: cut content mismatch", seed)
		}
	}
	whole, at := New(0).Truncate(data, len(data)+5)
	if at != len(data) || !bytes.Equal(whole, data) {
		t.Errorf("minKeep past end: at=%d", at)
	}
}
