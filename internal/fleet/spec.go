// Package fleet is the attack-campaign engine: it scales the paper's
// one-testbed-at-a-time evaluation to synthetic populations of smart homes.
// A population is generated deterministically from a seed (each home's
// device mix, timing jitter, link latencies and automation rules are a pure
// function of (seed, home index)), a campaign spec describes one attack
// procedure, and a sharded worker pool executes it across every home with
// bounded memory, checkpointed progress and worker-count-independent
// aggregated results.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Attack families a campaign can run.
const (
	// AttackEDelay holds each target's next event until the margin before
	// the predicted session timeout (the paper's maximum stealthy e-Delay);
	// unbounded targets are held for HoldSecs instead.
	AttackEDelay = "edelay"
	// AttackCDelay is the command-direction counterpart; targets without a
	// commandable attribute are skipped.
	AttackCDelay = "cdelay"
	// AttackOffline blackholes the target session's keep-alives for
	// HoldSecs while keeping the server-side connection open — the
	// Finding 2/3 offline-masking attack. Success means the servers raised
	// no offline alarm during the hold. On-demand devices keep no session
	// to hold and are skipped.
	AttackOffline = "offline"
	// AttackReplay captures one genuine event from each target and
	// re-injects it — verbatim on the hijacked session and/or re-issued
	// from a fresh attacker connection, per Spec.Replay. Success means the
	// duplicate event was accepted by the automation backend.
	AttackReplay = "replay"
)

// Replay injection modes for ReplaySpec.Mode.
const (
	// ReplayModeAuto tries raw injection first and falls back to the
	// application layer when raw is rejected and the capture is readable.
	ReplayModeAuto = "auto"
	// ReplayModeRaw only re-injects captured wire bytes on the live session.
	ReplayModeRaw = "raw"
	// ReplayModeApp only replays readable plaintexts from a fresh session.
	ReplayModeApp = "app"
)

// ReplaySpec tunes the replay attack family.
type ReplaySpec struct {
	// Mode selects the injection path: auto (default), raw or app.
	Mode string `json:"mode,omitempty"`
	// RetainBytes is the attacker capture's per-flow payload retention
	// budget. Default 4096.
	RetainBytes int `json:"retainBytes,omitempty"`
}

// TargetSpec selects which devices in each home the campaign attacks.
// An empty spec matches the default sensor classes (contact and motion).
type TargetSpec struct {
	// Classes matches device catalog classes ("contact sensor", ...).
	Classes []string `json:"classes,omitempty"`
	// Labels matches explicit catalog labels; unioned with Classes.
	Labels []string `json:"labels,omitempty"`
	// PerHome bounds how many matching devices are attacked per home
	// (first matches in deployment order). Default 1.
	PerHome int `json:"perHome"`
}

// Spec is a campaign: one attack procedure applied to every home of the
// population. The zero value is not runnable; use DefaultSpec or ParseSpec
// and Validate. The numeric fields' defaults apply only to keys a parsed
// spec omits: an explicit zero means zero, and survives a checkpoint or a
// partial file.
type Spec struct {
	// Name labels the campaign in results and checkpoints.
	Name string `json:"name,omitempty"`
	// Attack selects the family: edelay, cdelay, offline or replay.
	Attack string `json:"attack"`
	// Targets selects the attacked devices per home.
	Targets TargetSpec `json:"targets,omitempty"`
	// MarginSecs is the release margin before the predicted timeout for
	// the delay families. Default 2.
	MarginSecs float64 `json:"marginSecs"`
	// Trials is the number of attack trials per target. Default 1.
	Trials int `json:"trials"`
	// HoldSecs is the fixed hold for AttackOffline and for delay targets
	// with no bounding timeout (the HomeKit "∞" rows). Default 60.
	HoldSecs float64 `json:"holdSecs"`
	// TimingJitter is the per-home perturbation factor applied to every
	// profile's timing parameters (clamped to [0, 0.5]). Default 0.1.
	TimingJitter float64 `json:"timingJitter"`
	// RulesPerHome is the maximum number of synthetic TCA rules installed
	// per home. Default 2.
	RulesPerHome int `json:"rulesPerHome"`
	// Replay configures the replay attack family. A pointer so that specs
	// of the other families marshal exactly as they did before the field
	// existed, keeping historical checkpoint fingerprints valid.
	Replay *ReplaySpec `json:"replay,omitempty"`
}

// numericDefaults is what ParseSpec decodes over, so a key the spec
// omits keeps its default and an explicit zero replaces it.
func numericDefaults() Spec {
	return Spec{
		Targets:      TargetSpec{PerHome: 1},
		MarginSecs:   2,
		Trials:       1,
		HoldSecs:     60,
		TimingJitter: 0.1,
		RulesPerHome: 2,
	}
}

// DefaultSpec is the built-in campaign: one maximum-stealthy event delay
// against the first contact or motion sensor of every home.
func DefaultSpec() Spec {
	s := numericDefaults()
	s.Name = "edelay-sensors"
	s.Attack = AttackEDelay
	s.fill() // the default target classes
	return s
}

// fill applies the defaults that an empty value cannot mean: the name,
// the target classes, and the replay mode and budget. It leaves numeric
// fields as they are, zero included.
func (s *Spec) fill() {
	if s.Name == "" {
		s.Name = s.Attack
	}
	if len(s.Targets.Classes) == 0 && len(s.Targets.Labels) == 0 {
		s.Targets.Classes = []string{"contact sensor", "motion sensor"}
	}
	if s.Attack == AttackReplay {
		if s.Replay == nil {
			s.Replay = &ReplaySpec{}
		}
		if s.Replay.Mode == "" {
			s.Replay.Mode = ReplayModeAuto
		}
		if s.Replay.RetainBytes == 0 {
			s.Replay.RetainBytes = 4096
		}
	}
}

// Validate checks a (filled or raw) spec for semantic errors.
func (s Spec) Validate() error {
	switch s.Attack {
	case AttackEDelay, AttackCDelay, AttackOffline, AttackReplay:
	case "":
		return fmt.Errorf("fleet: spec has no attack family")
	default:
		return fmt.Errorf("fleet: unknown attack family %q", s.Attack)
	}
	if s.Replay != nil {
		if s.Attack != AttackReplay {
			return fmt.Errorf("fleet: replay settings given for attack family %q", s.Attack)
		}
		switch s.Replay.Mode {
		case "", ReplayModeAuto, ReplayModeRaw, ReplayModeApp:
		default:
			return fmt.Errorf("fleet: unknown replay mode %q", s.Replay.Mode)
		}
		if s.Replay.RetainBytes < 0 {
			return fmt.Errorf("fleet: negative replay.retainBytes %d", s.Replay.RetainBytes)
		}
		if s.Replay.RetainBytes > 1<<20 {
			return fmt.Errorf("fleet: replay.retainBytes %d beyond sanity bound %d", s.Replay.RetainBytes, 1<<20)
		}
	}
	if s.MarginSecs < 0 {
		return fmt.Errorf("fleet: negative marginSecs %v", s.MarginSecs)
	}
	switch {
	case s.HoldSecs < 0:
		return fmt.Errorf("fleet: negative holdSecs %v", s.HoldSecs)
	case s.HoldSecs == 0:
		return fmt.Errorf("fleet: holdSecs is 0; a hold must last")
	}
	switch {
	case s.Trials < 0:
		return fmt.Errorf("fleet: negative trials %d", s.Trials)
	case s.Trials == 0:
		return fmt.Errorf("fleet: trials is 0; a campaign runs at least one trial per target")
	}
	switch {
	case s.Targets.PerHome < 0:
		return fmt.Errorf("fleet: negative targets.perHome %d", s.Targets.PerHome)
	case s.Targets.PerHome == 0:
		return fmt.Errorf("fleet: targets.perHome is 0; a campaign attacks at least one device per home")
	}
	if s.TimingJitter < 0 || s.TimingJitter > 0.5 {
		return fmt.Errorf("fleet: timingJitter %v outside [0, 0.5]", s.TimingJitter)
	}
	if s.RulesPerHome < 0 {
		return fmt.Errorf("fleet: negative rulesPerHome %d", s.RulesPerHome)
	}
	const maxSecs = 7 * 24 * 3600
	if s.MarginSecs > maxSecs || s.HoldSecs > maxSecs {
		return fmt.Errorf("fleet: margin/hold beyond one week of simulated time")
	}
	if s.Trials > 1000 {
		return fmt.Errorf("fleet: trials %d beyond sanity bound 1000", s.Trials)
	}
	return nil
}

// Margin returns the release margin as a duration.
func (s Spec) Margin() time.Duration { return time.Duration(s.MarginSecs * float64(time.Second)) }

// Hold returns the fixed hold as a duration.
func (s Spec) Hold() time.Duration { return time.Duration(s.HoldSecs * float64(time.Second)) }

// ParseSpec decodes and validates a campaign spec. Unknown fields are
// rejected so a typo'd knob fails loudly instead of silently running the
// default. Omitted fields take their defaults, while an explicit zero
// stays zero; malformed specs return an error, never a panic.
func ParseSpec(data []byte) (Spec, error) {
	s := numericDefaults()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("fleet: parse campaign spec: %w", err)
	}
	// Trailing garbage after the spec object is a malformed file.
	if dec.More() {
		return Spec{}, fmt.Errorf("fleet: campaign spec has trailing data")
	}
	s.fill()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// matches reports whether a device with the given label and class is in
// the campaign's target set.
func (t TargetSpec) matches(label, class string) bool {
	for _, l := range t.Labels {
		if l == label {
			return true
		}
	}
	for _, c := range t.Classes {
		if c == class {
			return true
		}
	}
	return false
}
