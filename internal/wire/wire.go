// Package wire provides the binary encoding helpers shared by the
// simulation's application protocols, plus padding support: IoT messages
// are padded to profile-specified wire lengths so that the record-length
// fingerprinting the paper relies on has realistic, stable signatures.
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrTruncated reports a read past the end of a message.
var ErrTruncated = errors.New("wire: truncated message")

// Writer appends one message's binary fields to a caller's buffer, so an
// encoder that passes a reused scratch buffer allocates nothing once the
// buffer has grown.
type Writer struct {
	buf   []byte
	start int
}

// Append returns a writer that appends a message to dst.
func Append(dst []byte) Writer {
	return Writer{buf: dst, start: len(dst)}
}

// Bytes returns dst with the message appended.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the message's encoded length so far.
func (w *Writer) Len() int { return len(w.buf) - w.start }

// U8 appends a byte.
func (w *Writer) U8(v uint8) *Writer {
	w.buf = append(w.buf, v)
	return w
}

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) *Writer {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
	return w
}

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) *Writer {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
	return w
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) *Writer {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
	return w
}

// String appends a 16-bit-length-prefixed string.
func (w *Writer) String(s string) *Writer {
	w.U16(uint16(len(s)))
	w.buf = append(w.buf, s...)
	return w
}

// Bytes16 appends a 16-bit-length-prefixed byte slice.
func (w *Writer) Bytes16(b []byte) *Writer {
	w.U16(uint16(len(b)))
	w.buf = append(w.buf, b...)
	return w
}

// PadTo extends the message with zero bytes to exactly n bytes. If it is
// already longer, it is left unchanged: padding can only grow a message.
// Decoders ignore trailing padding.
func (w *Writer) PadTo(n int) *Writer {
	if pad := n - w.Len(); pad > 0 {
		w.buf = append(w.buf, make([]byte, pad)...)
	}
	return w
}

// Reader consumes binary fields from a buffer. Trailing unread bytes are
// permitted (they are message padding).
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a received message.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// String reads a 16-bit-length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U16())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Bytes16 reads a 16-bit-length-prefixed byte slice. The result aliases
// the input buffer; callers that retain it must copy.
func (r *Reader) Bytes16() []byte {
	n := int(r.U16())
	return r.take(n)
}
