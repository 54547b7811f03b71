package experiment

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestParallelMatchesSerial(t *testing.T) {
	labels := []string{"C1", "L2", "K2", "M7", "A1", "P2"}
	opts := TableOptions{Seed: 2100, Trials: 1}
	serial := RunTable(labels, opts)
	parallel := RunTableParallel(labels, opts, 4)
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("row %d errors: %v / %v", i, s.Err, p.Err)
		}
		if s.Label != p.Label ||
			s.EventDelayAchieved != p.EventDelayAchieved ||
			s.CommandDelayAchieved != p.CommandDelayAchieved ||
			s.Measured.String() != p.Measured.String() {
			t.Fatalf("row %d diverged:\nserial:   %+v\nparallel: %+v", i, s, p)
		}
	}
}

// TestParallelDeterministicAcrossWorkerCounts is the strong form of the
// serial/parallel equivalence claim: every row — including the full
// metrics snapshot of each device's testbed — must be byte-identical to
// the serial runner's, for any worker count.
func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	labels := []string{"C1", "C2", "L2", "K2", "M7", "A1", "P2", "CM1"}
	opts := TableOptions{Seed: 2150, Trials: 1}
	serial := RunTable(labels, opts)

	serialJSON := encodeRows(t, serial)
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		par := RunTableParallel(labels, opts, workers)
		if !reflect.DeepEqual(serial, par) {
			for i := range serial {
				if !reflect.DeepEqual(serial[i], par[i]) {
					t.Fatalf("workers=%d: row %d (%s) diverged from serial", workers, i, serial[i].Label)
				}
			}
			t.Fatalf("workers=%d: rows diverged from serial", workers)
		}
		if got := encodeRows(t, par); !bytes.Equal(serialJSON, got) {
			t.Fatalf("workers=%d: JSON export not byte-identical to serial", workers)
		}
	}
}

// encodeRows renders both export shapes (rows and merged metrics) so the
// byte-level comparison covers snapshot ordering too.
func encodeRows(t *testing.T, rows []TableRow) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRowsJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&buf).Encode(MergedMetrics(rows)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParallelEmptyLabels(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		rows := RunTableParallel(nil, TableOptions{Seed: 1, Trials: 1}, workers)
		if len(rows) != 0 {
			t.Fatalf("workers=%d: rows = %+v, want empty", workers, rows)
		}
	}
	if rows := RunTableParallel([]string{}, TableOptions{Seed: 1, Trials: 1}, 2); len(rows) != 0 {
		t.Fatalf("explicit empty slice: rows = %+v", rows)
	}
}

func TestParallelWorkerClamping(t *testing.T) {
	rows := RunTableParallel([]string{"K2"}, TableOptions{Seed: 2200, Trials: 1}, 64)
	if len(rows) != 1 || rows[0].Err != nil {
		t.Fatalf("rows = %+v", rows)
	}
	rows = RunTableParallel([]string{"K2"}, TableOptions{Seed: 2200, Trials: 1}, 0)
	if len(rows) != 1 || rows[0].Err != nil {
		t.Fatalf("rows with auto workers = %+v", rows)
	}
}

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
	results := RunCases([]Case{case10()}, 2400)
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
