package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestRoundTripAllTypes(t *testing.T) {
	w := Append(nil)
	w.U8(7).U16(300).U32(70000).U64(1 << 40).String("hello").Bytes16([]byte{1, 2, 3})
	r := NewReader(w.Bytes())
	if got := r.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := r.U16(); got != 300 {
		t.Fatalf("U16 = %d", got)
	}
	if got := r.U32(); got != 70000 {
		t.Fatalf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<40 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Bytes16(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes16 = %v", got)
	}
	if r.Err() != nil {
		t.Fatalf("err = %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestTruncatedRead(t *testing.T) {
	r := NewReader([]byte{0x01})
	_ = r.U32()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", r.Err())
	}
	// Subsequent reads keep returning zero values without panicking.
	if r.U16() != 0 || r.String() != "" {
		t.Fatal("reads after error should be zero-valued")
	}
}

func TestTruncatedString(t *testing.T) {
	w := Append(nil)
	w.U16(100) // claims 100 bytes, provides none
	r := NewReader(w.Bytes())
	if r.String() != "" || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatal("truncated string not detected")
	}
}

func TestPadTo(t *testing.T) {
	w := Append(nil)
	w.U8(1)
	w.PadTo(20)
	if w.Len() != 20 {
		t.Fatalf("len = %d, want 20", w.Len())
	}
	// Decoding ignores trailing padding.
	r := NewReader(w.Bytes())
	if r.U8() != 1 || r.Err() != nil {
		t.Fatal("padded message decode failed")
	}
	if r.Remaining() != 19 {
		t.Fatalf("remaining = %d, want 19", r.Remaining())
	}
}

func TestPadToNeverShrinks(t *testing.T) {
	w := Append(nil)
	w.String("a fairly long field")
	n := w.Len()
	w.PadTo(4)
	if w.Len() != n {
		t.Fatalf("PadTo shrank buffer: %d -> %d", n, w.Len())
	}
}

// TestAppendPadsOnlyItsMessage: a writer appends after what dst holds,
// counts and pads only its own message, and pads with zeros even where
// a reused buffer's spare capacity holds old bytes.
func TestAppendPadsOnlyItsMessage(t *testing.T) {
	scratch := append(make([]byte, 0, 32), "prefix"...)
	copy(scratch[len(scratch):cap(scratch)], bytes.Repeat([]byte{0xff}, cap(scratch)))
	w := Append(scratch)
	w.U8(1).PadTo(10)
	want := append([]byte("prefix"), 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if w.Len() != 10 || !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("Append(prefix).U8(1).PadTo(10) = %d bytes %x, want 10 bytes after the prefix: %x", w.Len(), w.Bytes(), want)
	}
}

func TestPropertyStringRoundTrip(t *testing.T) {
	f := func(s string, pad uint8) bool {
		if len(s) > 60000 {
			return true
		}
		w := Append(nil)
		w.String(s)
		w.PadTo(w.Len() + int(pad))
		r := NewReader(w.Bytes())
		return r.String() == s && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyIntRoundTrip(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d uint64) bool {
		w := Append(nil)
		w.U8(a).U16(b).U32(c).U64(d)
		r := NewReader(w.Bytes())
		return r.U8() == a && r.U16() == b && r.U32() == c && r.U64() == d && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
