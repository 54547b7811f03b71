package wire

import "testing"

// FuzzReader: no input may panic the reader; errors must be sticky.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	w := Append(nil)
	f.Add(w.U8(1).U16(2).String("abc").Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		_ = r.U8()
		_ = r.U16()
		_ = r.U32()
		_ = r.U64()
		_ = r.String()
		_ = r.Bytes16()
		if r.Err() != nil {
			// Sticky: all further reads are zero-valued, never panicking.
			if r.U8() != 0 || r.String() != "" {
				t.Fatal("reads after error must be zero-valued")
			}
		}
	})
}
