// Package tcpsim implements a TCP-like transport over ipnet with the timer
// machinery the paper's attack exploits: a retransmission timer with
// exponential backoff and a retry limit, and a keep-alive timer that probes
// idle connections. Both notify the application of a timeout by aborting
// the connection, which is exactly the alarm the phantom-delay attack must
// (and does) avoid triggering.
package tcpsim

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ipaddr"
)

// Flags is the TCP control-flag bitset.
type Flags uint8

// Control flags. Only the four the simulation needs are defined.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

// Has reports whether all flags in mask are set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }

// String renders the flag set for traces.
func (f Flags) String() string {
	s := ""
	if f.Has(FlagSYN) {
		s += "S"
	}
	if f.Has(FlagACK) {
		s += "A"
	}
	if f.Has(FlagFIN) {
		s += "F"
	}
	if f.Has(FlagRST) {
		s += "R"
	}
	if s == "" {
		s = "-"
	}
	return s
}

// Endpoint is one side of a connection.
type Endpoint struct {
	Addr ipaddr.Addr
	Port uint16
}

// String renders addr:port.
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// Segment is a TCP segment. Src/Dst addresses travel in the IP header; the
// ports, sequence numbers and flags are marshalled into the payload.
type Segment struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   Flags
	Payload []byte
}

// headerLen is the fixed marshalled header size.
const headerLen = 15

// Marshal encodes the segment for an IP payload.
func (s Segment) Marshal() []byte {
	return s.AppendTo(nil)
}

// AppendTo encodes the segment onto b (usually a reusable scratch buffer)
// and returns the extended slice.
func (s Segment) AppendTo(b []byte) []byte {
	n := len(b)
	total := n + headerLen + len(s.Payload)
	if cap(b) < total {
		nb := make([]byte, total)
		copy(nb, b)
		b = nb
	} else {
		b = b[:total]
	}
	out := b[n:]
	binary.BigEndian.PutUint16(out[0:2], s.SrcPort)
	binary.BigEndian.PutUint16(out[2:4], s.DstPort)
	binary.BigEndian.PutUint32(out[4:8], s.Seq)
	binary.BigEndian.PutUint32(out[8:12], s.Ack)
	out[12] = byte(s.Flags)
	binary.BigEndian.PutUint16(out[13:15], uint16(len(s.Payload)))
	copy(out[headerLen:], s.Payload)
	return b
}

// ErrShortSegment reports a truncated TCP payload.
var ErrShortSegment = errors.New("tcpsim: short segment")

// UnmarshalSegment decodes an IP payload into a Segment.
func UnmarshalSegment(b []byte) (Segment, error) {
	if len(b) < headerLen {
		return Segment{}, ErrShortSegment
	}
	n := int(binary.BigEndian.Uint16(b[13:15]))
	if len(b) < headerLen+n {
		return Segment{}, ErrShortSegment
	}
	return Segment{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Ack:     binary.BigEndian.Uint32(b[8:12]),
		Flags:   Flags(b[12]),
		Payload: b[headerLen : headerLen+n],
	}, nil
}

// seqLen is the sequence space the segment occupies (SYN and FIN each
// consume one sequence number).
func (s Segment) seqLen() uint32 {
	n := uint32(len(s.Payload))
	if s.Flags.Has(FlagSYN) {
		n++
	}
	if s.Flags.Has(FlagFIN) {
		n++
	}
	return n
}

// Sequence-space comparisons with wraparound.
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
func seqGT(a, b uint32) bool  { return int32(a-b) > 0 }
