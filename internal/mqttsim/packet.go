// Package mqttsim implements the MQTT subset IoT devices use: a long-lived
// session with CONNECT/CONNACK, PUBLISH/PUBACK and PINGREQ/PINGRESP
// keep-alives. Commands reach a device on its own session, so no session
// subscribes; the codec still numbers SUBSCRIBE and SUBACK as MQTT does.
//
// Timeout behaviour follows the paper's measurements rather than the
// letter of the spec where the two differ:
//
//   - Clients (devices) initiate keep-alives and enforce a response
//     timeout (the "timeout threshold of keep-alive messages" parameter);
//     their keep-alive schedule is either fixed-period or reset-on-activity
//     ("on-idle") — the "pattern" parameter.
//   - Brokers are passive (Finding 3: unidirectional liveness checking):
//     they answer pings but never probe, and tolerate idle clients
//     indefinitely.
//   - A broker keeps superseded half-open sessions without alarm and only
//     raises "device offline" when a client's last live session dies with
//     no replacement (Finding 2).
package mqttsim

import (
	"errors"
	"time"

	"repro/internal/simtime"
	"repro/internal/wire"
)

// PacketType identifies an MQTT control packet.
type PacketType uint8

// Control packet types (a subset of MQTT 3.1.1).
const (
	PacketConnect PacketType = iota + 1
	PacketConnAck
	PacketSubscribe
	PacketSubAck
	PacketPublish
	PacketPubAck
	PacketPingReq
	PacketPingResp
	PacketDisconnect
)

// String names the packet type for traces.
func (t PacketType) String() string {
	switch t {
	case PacketConnect:
		return "CONNECT"
	case PacketConnAck:
		return "CONNACK"
	case PacketSubscribe:
		return "SUBSCRIBE"
	case PacketSubAck:
		return "SUBACK"
	case PacketPublish:
		return "PUBLISH"
	case PacketPubAck:
		return "PUBACK"
	case PacketPingReq:
		return "PINGREQ"
	case PacketPingResp:
		return "PINGRESP"
	case PacketDisconnect:
		return "DISCONNECT"
	default:
		return "UNKNOWN"
	}
}

// Packet is one MQTT control packet. Only the fields relevant to a type
// are encoded.
type Packet struct {
	Type PacketType
	// ClientID and KeepAlive travel in CONNECT.
	ClientID  string
	KeepAlive time.Duration
	// Topic travels in SUBSCRIBE and PUBLISH.
	Topic string
	// ID travels in PUBLISH (nonzero requests a PUBACK) and PUBACK.
	ID uint16
	// Payload travels in PUBLISH.
	Payload []byte
	// Timestamp is the sender's generation time for PUBLISH packets. The
	// timestamp-checking countermeasure and staleness policies read it.
	Timestamp simtime.Time
}

// ErrBadPacket reports an undecodable packet.
var ErrBadPacket = errors.New("mqttsim: bad packet")

// Marshal encodes the packet, padding with zeros to at least padTo bytes
// so that its TLS record has the profile-specified wire length.
func (p Packet) Marshal(padTo int) []byte {
	w := wire.NewWriter(32 + len(p.Payload))
	w.U8(uint8(p.Type))
	switch p.Type {
	case PacketConnect:
		w.String(p.ClientID)
		w.U16(uint16(p.KeepAlive / time.Second))
	case PacketSubscribe:
		w.String(p.Topic)
	case PacketPublish:
		w.String(p.Topic)
		w.U16(p.ID)
		w.U64(uint64(p.Timestamp))
		w.Bytes16(p.Payload)
	case PacketPubAck:
		w.U16(p.ID)
	}
	w.PadTo(padTo)
	return w.Bytes()
}

// Unmarshal decodes a packet, ignoring trailing padding.
func Unmarshal(b []byte) (Packet, error) {
	r := wire.NewReader(b)
	var p Packet
	p.Type = PacketType(r.U8())
	switch p.Type {
	case PacketConnect:
		p.ClientID = r.String()
		p.KeepAlive = time.Duration(r.U16()) * time.Second
	case PacketSubscribe:
		p.Topic = r.String()
	case PacketPublish:
		p.Topic = r.String()
		p.ID = r.U16()
		p.Timestamp = simtime.Time(r.U64())
		payload := r.Bytes16()
		if payload != nil {
			p.Payload = make([]byte, len(payload))
			copy(p.Payload, payload)
		}
	case PacketPubAck:
		p.ID = r.U16()
	case PacketConnAck, PacketSubAck, PacketPingReq, PacketPingResp, PacketDisconnect:
	default:
		return Packet{}, ErrBadPacket
	}
	if r.Err() != nil {
		return Packet{}, ErrBadPacket
	}
	return p, nil
}
