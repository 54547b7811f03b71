package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRowsJSONExport(t *testing.T) {
	rows := RunTable([]string{"K2", "A1"}, TableOptions{Seed: 2300, Trials: 1})
	var buf bytes.Buffer
	if err := WriteRowsJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var decoded []TableRowJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d rows", len(decoded))
	}
	k2 := decoded[0]
	if k2.Label != "K2" || !k2.HasKeepAlive || k2.EventTimeoutSecs < 24 || k2.EventTimeoutSecs > 26 {
		t.Fatalf("K2 export = %+v", k2)
	}
	a1 := decoded[1]
	if !a1.EventDelayUnbounded || a1.HasKeepAlive {
		t.Fatalf("A1 export = %+v", a1)
	}
	if !strings.Contains(buf.String(), `"stealthOk": true`) {
		t.Fatal("stealth field missing")
	}
}

func TestCasesJSONExport(t *testing.T) {
	results := RunCases([]Case{Table3Cases()[9]}, 2400)
	var buf bytes.Buffer
	if err := WriteCasesJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	var decoded []CaseResultJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0].Case != 10 || !decoded[0].Succeeded {
		t.Fatalf("decoded = %+v", decoded)
	}
}
