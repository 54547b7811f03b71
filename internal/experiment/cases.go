package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/simtime"
)

// Case is one Table III proof-of-concept attack: an automation rule
// collected from user forums, a physical scenario, and the phantom-delay
// manipulation that produces the listed consequence.
type Case struct {
	ID          int
	Type        string // "state-update-delay", "action-delay", "spurious", "disabled"
	Trigger     string
	Condition   string
	Action      string
	Consequence string

	Devices     []string
	Integration cloud.IntegrationConfig
	Rules       []rules.Rule

	// Trace, when set, streams the attack arm's bridge records (see
	// CaseRun.Trace).
	Trace io.Writer

	// TraceCap, when positive, turns the attack arm's flight recorder on
	// (see TestbedConfig.TraceCap); the baseline arm never records.
	TraceCap int

	// Hijacks lists the devices whose sessions the attacker takes over.
	// The man-in-the-middle positions are installed before the home
	// starts, so every session establishes through the attacker (attack
	// arm only).
	Hijacks []string

	// Prepare sets initial device states (runs in both arms).
	Prepare func(*CaseRun)
	// Attack arms delay operations on the installed hijackers (attack arm
	// only; runs after Prepare so armed matchers only see scenario
	// traffic).
	Attack func(*CaseRun) error
	// Scenario plays the physical sequence (runs in both arms).
	Scenario func(*CaseRun) error
	// Judge inspects the outcome; it must return consequence=true in the
	// attack arm and consequence=false in the baseline arm.
	Judge func(*CaseRun) (consequence bool, detail string)
}

// CaseRun is the execution context handed to a case's hooks.
type CaseRun struct {
	TB       *Testbed
	Attacker *core.Attacker
	Attacked bool

	// Trace, when set, receives a line per TLS record crossing any
	// hijacked bridge, with its fingerprint classification — the
	// attacker's-eye view of the attack.
	Trace io.Writer

	hijackers map[string]*core.Hijacker
}

// Hijack installs (or returns) a hijacker for a device's session.
func (cr *CaseRun) Hijack(label string) (*core.Hijacker, error) {
	owner := cr.TB.SessionOwner(label).Label()
	if h, ok := cr.hijackers[owner]; ok {
		return h, nil
	}
	h, err := cr.TB.Hijack(cr.Attacker, label)
	if err != nil {
		return nil, err
	}
	cr.hijackers[owner] = h
	if cr.Trace != nil {
		cr.traceBridge(owner, h)
	}
	return h, nil
}

func (cr *CaseRun) traceBridge(owner string, h *core.Hijacker) {
	h.OnRecord = func(b *core.Bridge, r core.RecordInfo) {
		label := "?"
		if cls, ok := h.Classify(r); ok {
			label = cls.Origin + "/" + cls.Kind.String()
		}
		held := ""
		if holding, since := b.Holding(r.Dir); holding {
			held = fmt.Sprintf("  [HOLDING since %v, %d queued]", since.Round(time.Millisecond), b.HeldCount(r.Dir))
		}
		fmt.Fprintf(cr.Trace, "%12v  %-4s %-3s %4dB  %-22s%s\n",
			cr.TB.Clock.Now().Round(time.Millisecond), owner, r.Dir, r.WireLen, label, held)
	}
}

// Run advances virtual time.
func (cr *CaseRun) Run(d time.Duration) { cr.TB.Clock.RunFor(d) }

// Trigger fires a device event and fails the case on error.
func (cr *CaseRun) Trigger(label, attr, value string) error {
	return cr.TB.Device(label).TriggerEvent(attr, value)
}

// CaseResult reports one case run in both arms.
type CaseResult struct {
	Case                Case
	BaselineConsequence bool
	BaselineDetail      string
	AttackConsequence   bool
	AttackDetail        string
	AttackAlarms        int
	Err                 error

	// Metrics is the merged observability snapshot of both arms'
	// testbeds (whatever each arm produced before any failure).
	Metrics obs.Snapshot
	// Trace holds the attack arm's flight-recorder events when
	// Case.TraceCap turned it on.
	Trace []obs.TraceEvent
}

// Succeeded reports the paper's expectation: the consequence appears only
// under attack, with zero alarms.
func (r CaseResult) Succeeded() bool {
	return r.Err == nil && !r.BaselineConsequence && r.AttackConsequence && r.AttackAlarms == 0
}

// RunCases executes each case twice (baseline, then attacked) on fresh
// testbeds.
func RunCases(cases []Case, seed int64) []CaseResult {
	out := make([]CaseResult, 0, len(cases))
	for i, c := range cases {
		out = append(out, runCase(c, seed+int64(i)*997))
	}
	return out
}

func runCase(c Case, seed int64) (res CaseResult) {
	res = CaseResult{Case: c}
	var armSnaps []obs.Snapshot

	runArm := func(attacked bool, armSeed int64) (consequence bool, detail string, alarms int, err error) {
		cfg := TestbedConfig{Seed: armSeed, Devices: c.Devices, Integration: c.Integration}
		if attacked {
			cfg.TraceCap = c.TraceCap
		}
		tb, err := NewTestbed(cfg)
		if err != nil {
			return false, "", 0, err
		}
		defer func() {
			armSnaps = append(armSnaps, tb.Metrics.Snapshot())
			if attacked {
				res.Trace = tb.Metrics.Trace().Events()
			}
		}()
		cr := &CaseRun{TB: tb, Attacked: attacked, hijackers: make(map[string]*core.Hijacker)}
		if attacked {
			cr.Trace = c.Trace
			atk, err := tb.NewAttacker()
			if err != nil {
				return false, "", 0, err
			}
			cr.Attacker = atk
			// Take the man-in-the-middle positions before anything
			// connects, so the sessions establish through the attacker.
			for _, label := range c.Hijacks {
				if _, err := cr.Hijack(label); err != nil {
					return false, "", 0, err
				}
			}
		}
		for _, r := range c.Rules {
			if err := tb.InstallRule(r); err != nil {
				return false, "", 0, err
			}
		}
		tb.Start()
		if c.Prepare != nil {
			c.Prepare(cr)
			tb.Clock.RunFor(5 * time.Second)
		}
		if attacked && c.Attack != nil {
			if err := c.Attack(cr); err != nil {
				return false, "", 0, err
			}
			tb.Clock.RunFor(time.Second)
		}
		alarmsBefore := tb.TotalAlarmCount()
		if err := c.Scenario(cr); err != nil {
			return false, "", 0, err
		}
		consequence, detail = c.Judge(cr)
		return consequence, detail, tb.TotalAlarmCount() - alarmsBefore, nil
	}

	var err error
	defer func() { res.Metrics = obs.Merge(armSnaps...) }()
	res.BaselineConsequence, res.BaselineDetail, _, err = runArm(false, seed)
	if err != nil {
		res.Err = fmt.Errorf("baseline: %w", err)
		return res
	}
	res.AttackConsequence, res.AttackDetail, res.AttackAlarms, err = runArm(true, seed+1)
	if err != nil {
		res.Err = fmt.Errorf("attack: %w", err)
	}
	return res
}

// notificationLatency returns the latency of the first notification, if
// any was delivered.
func notificationLatency(tb *Testbed) (time.Duration, bool) {
	n := tb.Integration.Notifications()
	if len(n) == 0 {
		return 0, false
	}
	return n[0].Latency(), true
}

// actuationAt returns when the device last applied attr=value.
func actuationAt(tb *Testbed, label, attr, value string) (simtime.Time, bool) {
	var at simtime.Time
	found := false
	want := attr + "=" + value
	for _, e := range tb.Device(label).Log() {
		if e.Kind == "command-applied" && e.Detail == want {
			at = e.At
			found = true
		}
	}
	return at, found
}

// FormatCaseResults renders Table III-style rows.
func FormatCaseResults(w io.Writer, results []CaseResult) {
	fmt.Fprintf(w, "Table III — proof-of-concept attacks\n%s\n", strings.Repeat("=", 60))
	fmt.Fprintf(w, "%-4s %-20s %-34s %-34s %-9s %-7s\n", "Case", "Type", "Baseline", "Attacked", "Alarms", "Result")
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(w, "%-4d %-20s ERROR: %v\n", r.Case.ID, r.Case.Type, r.Err)
			continue
		}
		verdict := "FAILED"
		if r.Succeeded() {
			verdict = "ok"
		}
		fmt.Fprintf(w, "%-4d %-20s %-34s %-34s %-9d %-7s\n",
			r.Case.ID, r.Case.Type, r.BaselineDetail, r.AttackDetail, r.AttackAlarms, verdict)
	}
}
