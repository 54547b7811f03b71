package replay_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/ipaddr"
	"repro/internal/replay"
	"repro/internal/sniff"
	"repro/internal/tcpsim"
	"repro/internal/tlssim"
)

// fakeCapture builds a capture transcript for one device flow: keep-alive,
// event, keep-alive, plus a second flow as a decoy. Payloads are synthetic —
// the helpers under test select records by classifier verdict and flow
// membership, never by content.
func fakeCapture(t *testing.T, label string) ([]sniff.RecordMeta, sniff.FlowKey) {
	t.Helper()
	var prof device.Profile
	for _, p := range device.Catalog() {
		if p.Label == label {
			prof = p
		}
	}
	if prof.Label == "" {
		t.Fatalf("label %s not in catalog", label)
	}
	flow := sniff.FlowKey{
		Client: tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.30"), Port: 40000},
		Server: tcpsim.Endpoint{Addr: ipaddr.MustParse("100.64.10.10"), Port: 8883},
	}
	decoy := sniff.FlowKey{
		Client: tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.31"), Port: 40001},
		Server: flow.Server,
	}
	rec := func(f sniff.FlowKey, dir sniff.Direction, wire int) sniff.RecordMeta {
		return sniff.RecordMeta{
			Flow: f, Dir: dir, Type: tlssim.RecordApplication,
			WireLen: wire, Payload: make([]byte, wire),
		}
	}
	ka := prof.KeepAliveLen + tlssim.Overhead
	ev := prof.EventLen + tlssim.Overhead
	records := []sniff.RecordMeta{
		rec(flow, sniff.DirClientToServer, ka),
		rec(decoy, sniff.DirClientToServer, ka+1), // wrong length: unclassified
		rec(flow, sniff.DirServerToClient, ev),    // wrong direction
		rec(flow, sniff.DirClientToServer, ev),    // the event
		rec(flow, sniff.DirClientToServer, ka),    // traffic after the event
	}
	return records, flow
}

func TestFindEventRecordPicksLatestEvent(t *testing.T) {
	const label = "P2"
	records, _ := fakeCapture(t, label)
	idx, ok := replay.FindEventRecord(sniff.CatalogClassifier(), label, label, records)
	if !ok || idx != 3 {
		t.Fatalf("FindEventRecord = %d, %v; want 3, true", idx, ok)
	}

	// A duplicate event later in the capture wins: newest-first scan.
	records = append(records, records[3])
	idx, ok = replay.FindEventRecord(sniff.CatalogClassifier(), label, label, records)
	if !ok || idx != 5 {
		t.Fatalf("after duplicate: FindEventRecord = %d, %v; want 5, true", idx, ok)
	}

	// Records without retained payloads cannot be replayed, so they are
	// skipped even when their lengths classify.
	for i := range records {
		records[i].Payload = nil
	}
	if _, ok := replay.FindEventRecord(sniff.CatalogClassifier(), label, label, records); ok {
		t.Fatal("payload-less capture yielded a replayable event")
	}
}

func TestSessionPrefixFiltersFlowAndDirection(t *testing.T) {
	records, flow := fakeCapture(t, "P2")
	prefix := replay.SessionPrefix(records, 3)
	// Device-to-server records of the event's flow, up to and including the
	// event: the opening keep-alive and the event itself. The decoy flow,
	// the server-to-client record and post-event traffic are all excluded.
	if len(prefix) != 2 {
		t.Fatalf("prefix has %d records, want 2: %+v", len(prefix), prefix)
	}
	for _, r := range prefix {
		if r.Flow != flow || r.Dir != sniff.DirClientToServer {
			t.Fatalf("prefix leaked a foreign record: %+v", r)
		}
	}
	if prefix[len(prefix)-1].WireLen != records[3].WireLen {
		t.Fatal("prefix does not end at the event record")
	}

	if replay.SessionPrefix(records, -1) != nil || replay.SessionPrefix(records, len(records)) != nil {
		t.Fatal("out-of-range index returned a prefix")
	}
}

// recordEvent deploys label in a testbed, hijacks its session with payload
// retention on, records one genuine event and returns the attacker, the
// event flow's device-to-server prefix and the server to replay against.
func recordEvent(t *testing.T, label string) (*core.Attacker, []sniff.RecordMeta, tcpsim.Endpoint) {
	t.Helper()
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: 1, Devices: []string{label}})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		t.Fatal(err)
	}
	capture := tb.NewCapture(4096)
	h, err := tb.Hijack(atk, label)
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	lab, err := tb.NewLab(h, label)
	if err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(3 * time.Second)
	if err := lab.TriggerEvent(); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(3 * time.Second)
	records := capture.Records()
	owner := tb.SessionOwnerProfile(label).Label
	idx, ok := replay.FindEventRecord(sniff.CatalogClassifier(), owner, label, records)
	if !ok {
		t.Fatalf("%s: no retained event record", label)
	}
	target := h.Target()
	return atk, replay.SessionPrefix(records, idx), tcpsim.Endpoint{Addr: target.ServerAddr, Port: target.ServerPort}
}

// TestAppReplayNeedsNullCipherHello: readability comes from the captured
// client hello, not from a record's shape. A seq-bound capture's sealed
// records have consistent length fields, yet the attacker must not dial the
// server to re-send their ciphertext as cleartext.
func TestAppReplayNeedsNullCipherHello(t *testing.T) {
	atk, prefix, server := recordEvent(t, "P2")
	conns := atk.TCP.ConnCount()
	if _, err := replay.NewEngine(atk).AppReplay(server, prefix); !errors.Is(err, replay.ErrNotReadable) {
		t.Fatalf("seq-bound capture: AppReplay err = %v, want ErrNotReadable", err)
	}
	if got := atk.TCP.ConnCount(); got != conns {
		t.Fatalf("seq-bound capture: attacker connections %d -> %d, want no dial", conns, got)
	}

	// Null-cipher firmware (T1) is readable, but only while the capture
	// still holds its client hello.
	atk, prefix, server = recordEvent(t, "T1")
	if prefix[0].Type != tlssim.RecordHandshake {
		t.Fatalf("T1 prefix opens with record type %d, want the client hello", prefix[0].Type)
	}
	evicted := append([]sniff.RecordMeta(nil), prefix...)
	evicted[0].Payload = nil
	if _, err := replay.NewEngine(atk).AppReplay(server, evicted); !errors.Is(err, replay.ErrNotReadable) {
		t.Fatalf("evicted hello: AppReplay err = %v, want ErrNotReadable", err)
	}
	conns = atk.TCP.ConnCount()
	s, err := replay.NewEngine(atk).AppReplay(server, prefix)
	if err != nil {
		t.Fatalf("null-cipher capture: AppReplay err = %v", err)
	}
	if s.Conn == nil || atk.TCP.ConnCount() != conns+1 {
		t.Fatal("null-cipher capture: AppReplay opened no session")
	}
}
