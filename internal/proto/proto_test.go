package proto

import (
	"testing"
	"time"
)

func TestPatternStrings(t *testing.T) {
	tests := []struct {
		p    Pattern
		want string
	}{
		{PatternFixed, "fixed"},
		{PatternOnIdle, "on-idle"},
		{PatternNone, "none"},
		{Pattern(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("Pattern(%d).String() = %q, want %q", tt.p, got, tt.want)
		}
	}
}

func TestCloseReasonStrings(t *testing.T) {
	tests := []struct {
		r    CloseReason
		want string
	}{
		{ReasonGraceful, "graceful"},
		{ReasonKeepAliveTimeout, "keepalive-timeout"},
		{ReasonAckTimeout, "ack-timeout"},
		{ReasonTransport, "transport-error"},
		{ReasonServerClosed, "server-closed"},
		{CloseReason(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("CloseReason(%d).String() = %q, want %q", tt.r, got, tt.want)
		}
	}
}

func TestAlarmLogRaiseAndQuery(t *testing.T) {
	var l AlarmLog
	l.Raise(time.Second, "dev-1", "device-offline", "gone")
	l.Raise(2*time.Second, "dev-2", "command-timeout", "lock/set")
	l.Raise(3*time.Second, "dev-1", "device-offline", "gone again")

	if l.Count() != 3 {
		t.Fatalf("Count = %d, want 3", l.Count())
	}
	if l.CountKind("device-offline") != 2 || l.CountKind("command-timeout") != 1 {
		t.Fatalf("kind counts wrong: %v", l.All())
	}
	if l.CountKind("nope") != 0 {
		t.Fatal("unknown kind should count 0")
	}
	all := l.All()
	if len(all) != 3 || all[0].At != time.Second || all[2].Detail != "gone again" {
		t.Fatalf("All() = %v", all)
	}
	// All returns a copy.
	all[0].ClientID = "mutated"
	if l.All()[0].ClientID != "dev-1" {
		t.Fatal("All() leaked internal slice")
	}
}

func TestAlarmString(t *testing.T) {
	a := Alarm{At: 5 * time.Second, ClientID: "H1", Kind: "device-offline", Detail: "lost"}
	want := "[5s] H1: device-offline (lost)"
	if a.String() != want {
		t.Fatalf("String() = %q, want %q", a.String(), want)
	}
}

func TestEmptyAlarmLog(t *testing.T) {
	var l AlarmLog
	if l.Count() != 0 || len(l.All()) != 0 {
		t.Fatal("zero-value log should be empty and usable")
	}
}
