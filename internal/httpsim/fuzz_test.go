package httpsim

import "testing"

// FuzzUnmarshal: arbitrary bytes must never panic the message decoder.
func FuzzUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add(Message{Type: MsgRequest, ID: 1, DeviceID: "d", Path: "/event", Body: []byte("b")}.AppendTo(nil, 0))
	f.Add(Message{Type: MsgResponse, ID: 2, Status: 200}.AppendTo(nil, 128))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		round, err := Unmarshal(m.AppendTo(nil, 0))
		if err != nil {
			t.Fatalf("re-encode of %+v failed: %v", m, err)
		}
		if round.Type != m.Type || round.ID != m.ID || round.Path != m.Path {
			t.Fatalf("round trip changed message: %+v -> %+v", m, round)
		}
	})
}
