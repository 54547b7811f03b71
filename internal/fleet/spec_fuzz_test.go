package fleet

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseSpec: arbitrary spec bytes must never panic, and every accepted
// spec must be filled and valid, and must parse back from its own JSON
// unchanged, explicit zeros included.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"attack":"edelay"}`))
	f.Add([]byte(`{"name":"x","attack":"offline","holdSecs":300,"targets":{"labels":["C1"],"perHome":2}}`))
	f.Add([]byte(`{"attack":"cdelay","marginSecs":0.5,"trials":3,"timingJitter":0.25}`))
	f.Add([]byte(zeroSpec))
	f.Add([]byte(`{"attack":"edelay","unknown":1}`))
	f.Add([]byte(`{"attack":"edelay"}{"attack":"cdelay"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"attack":"edelay","trials":-1}`))
	f.Add([]byte(`{"attack":"edelay","holdSecs":1e300}`))
	f.Add([]byte(`{"attack":"replay"}`))
	f.Add([]byte(`{"attack":"replay","replay":{"mode":"raw","retainBytes":1024}}`))
	f.Add([]byte(`{"attack":"replay","replay":{"mode":"verbatim"}}`))
	f.Add([]byte(`{"attack":"replay","replay":{"retainBytes":-1}}`))
	f.Add([]byte(`{"attack":"edelay","replay":{"mode":"app"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted spec fails validation: %v (%q)", err, data)
		}
		if s.Attack == "" || s.Trials < 1 || s.Targets.PerHome < 1 {
			t.Fatalf("accepted spec not filled: %+v (%q)", s, data)
		}
		if s.Attack == AttackReplay {
			if s.Replay == nil || s.Replay.Mode == "" || s.Replay.RetainBytes < 1 {
				t.Fatalf("accepted replay spec not filled: %+v (%q)", s.Replay, data)
			}
		} else if s.Replay != nil {
			t.Fatalf("non-replay spec carries replay settings: %+v (%q)", s, data)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(enc)
		if err != nil {
			t.Fatalf("spec does not parse back from its JSON %s: %v", enc, err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, enc) {
			t.Fatalf("spec changed through its JSON: %s became %s", enc, again)
		}
	})
}
