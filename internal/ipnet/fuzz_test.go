package ipnet

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
)

// routedFrames returns the IPv4 frame payloads a device-to-cloud exchange
// puts on both segments of the WAN environment: each packet on the LAN as
// sent and on the WAN one hop later, with and without a payload.
func routedFrames() [][]byte {
	e := newWANEnv()
	var out [][]byte
	tap := func(f netsim.Frame) {
		if f.Type == netsim.EtherTypeIPv4 {
			out = append(out, append([]byte(nil), f.Payload...))
		}
	}
	e.lan.AddTap(tap)
	e.wan.AddTap(tap)
	e.cloud.Handle(ProtoTCP, func(Packet) {})
	_ = e.device.Send(Packet{Dst: e.cloud.Addr(), Proto: ProtoTCP, Payload: []byte("up")})
	_ = e.device.Send(Packet{Dst: e.cloud.Addr(), Proto: ProtoTCP})
	e.clk.Run()
	return out
}

// FuzzUnmarshal: no bytes may panic the packet decoder, and a decoded
// packet re-encodes to the bytes it was decoded from, which are the
// input's first 12+len(Payload) (a frame may carry trailing bytes).
func FuzzUnmarshal(f *testing.F) {
	frames := routedFrames()
	if len(frames) != 4 {
		f.Fatalf("the routed exchange put %d IPv4 frames on the wire, want 4", len(frames))
	}
	for _, b := range frames {
		f.Add(b)
	}
	f.Add(append(frames[0], 0xff))
	f.Add(frames[0][:headerLen])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		n := headerLen + len(p.Payload)
		if got := p.AppendTo(nil); !bytes.Equal(got, data[:n]) {
			t.Fatalf("re-encoded %x, want the decoded bytes %x", got, data[:n])
		}
	})
}
