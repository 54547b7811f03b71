package hapsim

import "testing"

// FuzzUnmarshal: arbitrary bytes must never panic the message decoder.
func FuzzUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add(Message{Type: MsgHello, AccessoryID: "a"}.AppendTo(nil, 0))
	f.Add(Message{Type: MsgEvent, AccessoryID: "a", Characteristic: "c", Value: "v"}.AppendTo(nil, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		if _, err := Unmarshal(m.AppendTo(nil, 0)); err != nil {
			t.Fatalf("re-encode of %+v failed: %v", m, err)
		}
	})
}
