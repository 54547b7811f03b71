package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// exportRuns renders the three per-device runners' results on labels as
// JSON, each result's metrics snapshot included.
func exportRuns(t *testing.T, labels []string) []byte {
	t.Helper()
	var b bytes.Buffer
	rows := RunTable(labels, TableOptions{Seed: 3, Trials: 1})
	if err := WriteRowsJSON(&b, rows); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&b)
	encode := func(v any, err error) {
		if err := enc.Encode([]any{v, fmt.Sprint(err)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rows {
		encode(r.Metrics, r.Err)
	}
	for _, r := range RunVerification(labels, VerifyOptions{Seed: 5, Trials: 1}) {
		encode(r, r.Err)
	}
	for _, r := range RunReplayAssessment(labels, ReplayOptions{Seed: 7}) {
		encode(r, r.Err)
	}
	return b.Bytes()
}

// The per-device runners give the same bytes on one worker as on more
// workers than devices: one label per transport (hub child, on-demand
// HTTP, HomeKit).
func TestPerDeviceRunsIndependentOfWorkerCount(t *testing.T) {
	labels := []string{"C1", "M7", "A1"}
	export := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return exportRuns(t, labels)
	}
	serial := export(1)
	if parallel := export(4); !bytes.Equal(serial, parallel) {
		t.Fatalf("GOMAXPROCS 4 export differs from GOMAXPROCS 1:\n--- 1\n%s\n--- 4\n%s", serial, parallel)
	}
	for _, want := range []string{`"label": "C1"`, `"label": "M7"`, `"label": "A1"`} {
		if !bytes.Contains(serial, []byte(want)) {
			t.Errorf("export lacks %s", want)
		}
	}

	if n := len(RunTable(nil, TableOptions{})); n != 0 {
		t.Errorf("RunTable(nil) = %d rows", n)
	}
	if n := len(RunVerification(nil, VerifyOptions{})); n != 0 {
		t.Errorf("RunVerification(nil) = %d results", n)
	}
	if n := len(RunReplayAssessment(nil, ReplayOptions{})); n != 0 {
		t.Errorf("RunReplayAssessment(nil) = %d results", n)
	}
}

// measureEach hands each label its own index and keeps result i in slot
// i, with more workers than labels and the measurements finishing in the
// reverse of index order.
func TestMeasureEachKeepsIndexOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	labels := []string{"a", "b", "c"}
	finished := make([]chan struct{}, len(labels)+1)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	close(finished[len(labels)])
	got := measureEach(labels, func(i int, label string) string {
		select {
		case <-finished[i+1]:
			close(finished[i])
		case <-time.After(10 * time.Second):
			t.Errorf("measurement %d (%s) waited 10s for measurement %d", i, label, i+1)
		}
		return fmt.Sprintf("%d:%s", i, label)
	})
	if want := []string{"0:a", "1:b", "2:c"}; !slices.Equal(got, want) {
		t.Fatalf("measureEach = %q, want %q", got, want)
	}
	if got := measureEach(nil, func(int, string) string { return "x" }); len(got) != 0 {
		t.Fatalf("measureEach(nil) = %q", got)
	}
}
