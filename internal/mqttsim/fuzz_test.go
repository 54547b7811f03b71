package mqttsim

import "testing"

// FuzzUnmarshal: arbitrary bytes must never panic the packet decoder, and
// every successfully decoded packet must re-encode decodable.
func FuzzUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add(Packet{Type: PacketConnect, ClientID: "dev", KeepAlive: 31e9}.AppendTo(nil, 0))
	f.Add(Packet{Type: PacketPublish, Topic: "a/b", ID: 7, Payload: []byte("x")}.AppendTo(nil, 64))
	f.Add(Packet{Type: PacketPingReq}.AppendTo(nil, 48))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		round, err := Unmarshal(p.AppendTo(nil, 0))
		if err != nil {
			t.Fatalf("re-encode of %+v failed: %v", p, err)
		}
		if round.Type != p.Type || round.Topic != p.Topic || round.ID != p.ID {
			t.Fatalf("round trip changed packet: %+v -> %+v", p, round)
		}
	})
}
