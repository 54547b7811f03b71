// Package proto holds what the simulation's application protocols share:
// keep-alive patterns, session close reasons, server-side alarms, and the
// two tables every simulated server keeps, its pending commands and its
// device sessions, so that each server-side rule is written once.
package proto

import (
	"fmt"

	"repro/internal/simtime"
)

// Pattern describes when a session's initiator sends keep-alives
// (Section IV-B of the paper, the "pattern of keep-alive messages").
type Pattern int

// Keep-alive patterns.
const (
	// PatternFixed sends keep-alives on a strict period, independent of
	// other traffic (e.g. the Philips Hue bridge's 120s schedule).
	PatternFixed Pattern = iota + 1
	// PatternOnIdle resets the keep-alive timer on every send, so
	// keep-alives are only exchanged when the session is otherwise idle
	// (e.g. the SmartThings hub's 31s schedule).
	PatternOnIdle
	// PatternNone marks devices without keep-alives (on-demand sessions).
	PatternNone
)

// String names the pattern as the paper's tables do.
func (p Pattern) String() string {
	switch p {
	case PatternFixed:
		return "fixed"
	case PatternOnIdle:
		return "on-idle"
	case PatternNone:
		return "none"
	default:
		return "unknown"
	}
}

// CloseReason explains why a session ended.
type CloseReason int

// Close reasons.
const (
	// ReasonGraceful means an orderly shutdown.
	ReasonGraceful CloseReason = iota + 1
	// ReasonKeepAliveTimeout means a keep-alive went unanswered past the
	// initiator's timeout threshold — the device-side alarm the attacker
	// must stay ahead of.
	ReasonKeepAliveTimeout
	// ReasonAckTimeout means a normal message's acknowledgement or
	// response timed out.
	ReasonAckTimeout
	// ReasonTransport means the TCP or TLS layer failed.
	ReasonTransport
	// ReasonServerClosed means the server ended the session.
	ReasonServerClosed
)

// String names the reason for logs.
func (r CloseReason) String() string {
	switch r {
	case ReasonGraceful:
		return "graceful"
	case ReasonKeepAliveTimeout:
		return "keepalive-timeout"
	case ReasonAckTimeout:
		return "ack-timeout"
	case ReasonTransport:
		return "transport-error"
	case ReasonServerClosed:
		return "server-closed"
	default:
		return "unknown"
	}
}

// Alarm is a server-side anomaly report — exactly what the phantom-delay
// attack must never generate.
type Alarm struct {
	At       simtime.Time
	ClientID string
	Kind     string
	Detail   string
}

// String renders the alarm for logs.
func (a Alarm) String() string {
	return fmt.Sprintf("[%v] %s: %s (%s)", a.At, a.ClientID, a.Kind, a.Detail)
}

// AlarmLog accumulates alarms.
type AlarmLog struct {
	alarms []Alarm
}

// Raise records an alarm.
func (l *AlarmLog) Raise(at simtime.Time, clientID, kind, detail string) {
	l.alarms = append(l.alarms, Alarm{At: at, ClientID: clientID, Kind: kind, Detail: detail})
}

// All returns a copy of the recorded alarms.
func (l *AlarmLog) All() []Alarm {
	out := make([]Alarm, len(l.alarms))
	copy(out, l.alarms)
	return out
}

// Count returns the number of recorded alarms.
func (l *AlarmLog) Count() int { return len(l.alarms) }

// CountKind returns the number of alarms of one kind.
func (l *AlarmLog) CountKind(kind string) int {
	n := 0
	for _, a := range l.alarms {
		if a.Kind == kind {
			n++
		}
	}
	return n
}
