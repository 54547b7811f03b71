package experiment

import (
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/rules"
)

// Table3Cases returns the eleven proof-of-concept attacks of Table III.
// The rules come from the paper's forum-collected automations, written in
// the rule language (rules.Parse); devices are mapped onto the catalog.
// Device events are written the same way, dev.attr=value. One modelling
// note: the paper's homes mix vendors, so a rule's trigger and condition
// devices ride different TCP sessions — a requirement for Type-III
// attacks, since holding one record holds everything behind it on the
// same session.
func Table3Cases() []Case {
	return []Case{{
		ID: 1, Type: "state-update-delay",
		Trigger: "Front door opened", Action: "Voice notification",
		Consequence: "late burglary alerts",
		Devices:     []string{"C2"},
		Hijacks:     []string{"C2"},
		Rules:       []rules.Rule{rules.MustParse(`voice-alert-on-open: WHEN C2.contact=open THEN NOTIFY "front door opened"`)},
		Attack:      holdEvent("C2", 55*time.Second), // inside the Ring 60s window
		Scenario:    play(step{"C2.contact=open", 2 * time.Minute}),
		Judge:       lateNotificationJudge(30 * time.Second),
	}, {
		ID: 2, Type: "state-update-delay",
		Trigger: "Motion active", Action: "Mobile notification",
		Consequence: "late burglary alerts",
		Devices:     []string{"M3"},
		Hijacks:     []string{"M3"},
		Rules:       []rules.Rule{rules.MustParse(`motion-alert: WHEN M3.motion=active THEN NOTIFY "motion detected"`)},
		Attack:      holdEvent("M3", 55*time.Second),
		Scenario:    play(step{"M3.motion=active", 2 * time.Minute}),
		Judge:       lateNotificationJudge(30 * time.Second),
	}, {
		ID: 3, Type: "action-delay",
		Trigger: "Front door closed", Action: "Lock the door",
		Consequence: "door not locked in time",
		Devices:     []string{"C2", "LK1"},
		Hijacks:     []string{"C2", "LK1"},
		Rules:       []rules.Rule{rules.MustParse(`lock-on-close: WHEN C2.contact=closed THEN LK1.lock=locked`)},
		Prepare:     prepare("LK1.lock=unlocked"),
		Attack: func(cr *CaseRun) error {
			hDoor, err := cr.Hijack("C2")
			if err != nil {
				return err
			}
			hLock, err := cr.Hijack("LK1")
			if err != nil {
				return err
			}
			// The Case 3/4 technique: stack e-Delay on the contact sensor
			// with c-Delay on the lock to pass the one-minute mark.
			core.NewActionDelay(core.ActionDelayConfig{
				TriggerHijacker: hDoor, TriggerOrigin: "C2", TriggerHold: 55 * time.Second,
				CommandHijacker: hLock, CommandOrigin: "LK1", CommandHold: 14 * time.Second,
			})
			return nil
		},
		Scenario: play(step{"C2.contact=closed", 3 * time.Minute}),
		Judge: func(cr *CaseRun) (bool, string) {
			at, ok := actuationAt(cr.TB, "LK1", "lock", "locked")
			if !ok {
				return true, "door never locked"
			}
			// Measure from when the door sensor generated its last
			// close event.
			var closeGen time.Duration
			for _, ev := range cr.TB.Integration.Events() {
				if ev.Device == "C2" && ev.Value == "closed" {
					closeGen = ev.GeneratedAt
				}
			}
			delay := at - closeGen
			return delay >= time.Minute, "locked " + delay.Round(time.Millisecond).String() + " after closing"
		},
	}, {
		ID: 4, Type: "action-delay",
		Trigger: "Home security system armed", Action: "Turn off heater",
		Consequence: "heater not turned off (event silently discarded)",
		Devices:     []string{"K1", "P2"},
		Hijacks:     []string{"K1"},
		Integration: cloud.IntegrationConfig{
			// The Alexa behaviour found in Case 4: events delayed past 30s
			// are discarded with no notification.
			Policy:      cloud.StaleDiscardSilently,
			MaxEventAge: 30 * time.Second,
		},
		Rules:    []rules.Rule{rules.MustParse(`heater-off-when-armed: WHEN K1.mode=away THEN P2.switch=off`)},
		Prepare:  prepare("P2.switch=on"),
		Attack:   holdEvent("K1", 45*time.Second), // > 30s staleness cutoff, < 60s session window
		Scenario: play(step{"K1.mode=away", 3 * time.Minute}),
		Judge:    stateIs("P2.switch=on", "heater still on; armed event discarded", "heater turned off"),
	}, {
		ID: 5, Type: "spurious",
		Trigger: "Front door unlocked", Condition: "Entrance motion inactive",
		Action:      "Disarm security system",
		Consequence: "security system disarmed",
		Devices:     []string{"LK1", "M3", "H3"},
		Hijacks:     []string{"M3", "LK1"},
		Rules:       []rules.Rule{rules.MustParse(`disarm-on-unlock: WHEN LK1.lock=unlocked IF M3.motion=inactive THEN H3.mode=disarmed`)},
		Prepare:     prepare("M3.motion=inactive", "H3.mode=away"),
		Attack:      reorder(core.SpuriousExecution, "M3", "LK1"),
		// Motion at the entrance (would falsify the condition), then the
		// door is unlocked.
		Scenario: play(step{"M3.motion=active", 3 * time.Second}, step{"LK1.lock=unlocked", time.Minute}),
		Judge:    stateIs("H3.mode=disarmed", "security disarmed despite motion", "security stayed armed"),
	}, {
		ID: 6, Type: "spurious",
		Trigger: "Bedroom motion active", Condition: "Bedroom door closed",
		Action:      "Turn on bedroom heater",
		Consequence: "heater maliciously turned on",
		Devices:     []string{"M1", "C5", "P2"},
		Hijacks:     []string{"C5", "M1"},
		Rules:       []rules.Rule{rules.MustParse(`heater-on-motion: WHEN M1.motion=active IF C5.contact=closed THEN P2.switch=on`)},
		Prepare:     prepare("C5.contact=closed", "P2.switch=off"),
		Attack:      reorder(core.SpuriousExecution, "C5", "M1"),
		Scenario:    play(step{"C5.contact=open", 3 * time.Second}, step{"M1.motion=active", time.Minute}),
		Judge:       stateIs("P2.switch=on", "heater on despite open door", "heater stayed off"),
	}, {
		ID: 7, Type: "spurious",
		Trigger: "Study motion active", Condition: "Study door closed",
		Action:      "Open the study window",
		Consequence: "window maliciously opened",
		Devices:     []string{"M4", "C5", "V1"},
		Hijacks:     []string{"C5", "M4"},
		Rules:       []rules.Rule{rules.MustParse(`vent-study: WHEN M4.motion=active IF C5.contact=closed THEN V1.valve=open`)},
		Prepare:     prepare("C5.contact=closed", "V1.valve=closed"),
		Attack:      reorder(core.SpuriousExecution, "C5", "M4"),
		Scenario:    play(step{"C5.contact=open", 3 * time.Second}, step{"M4.motion=active", time.Minute}),
		Judge:       stateIs("V1.valve=open", "window opened despite open door", "window stayed closed"),
	}, {
		ID: 8, Type: "spurious",
		Trigger: "Storm door opened", Condition: "Presence on",
		Action:      "Unlock the interior door",
		Consequence: "door maliciously unlocked",
		Devices:     []string{"C5", "P1", "LK1"},
		Hijacks:     []string{"P1", "C5"},
		Rules:       []rules.Rule{rules.MustParse(`unlock-when-home: WHEN C5.contact=open IF P1.presence=present THEN LK1.lock=unlocked`)},
		Prepare:     prepare("P1.presence=present", "LK1.lock=locked"),
		Attack:      reorder(core.SpuriousExecution, "P1", "C5"),
		// The user leaves, then the burglar pulls the storm door within
		// the 40s window.
		Scenario: play(step{"P1.presence=away", 10 * time.Second}, step{"C5.contact=open", time.Minute}),
		Judge:    stateIs("LK1.lock=unlocked", "interior door unlocked with nobody home", "door stayed locked"),
	}, {
		ID: 9, Type: "disabled",
		Trigger: "Presence away", Condition: "Front door open",
		Action:      "Send text message",
		Consequence: "door-open notification muted",
		Devices:     []string{"P1", "C2"},
		Hijacks:     []string{"C2", "P1"},
		Rules:       []rules.Rule{rules.MustParse(`warn-door-open-when-leaving: WHEN P1.presence=away IF C2.contact=open THEN NOTIFY "you left the front door open!"`)},
		Prepare:     prepare("P1.presence=present", "C2.contact=closed"),
		Attack:      reorder(core.DisabledExecution, "C2", "P1"),
		// The door is opened (and forgotten), and the user leaves.
		Scenario: play(step{"C2.contact=open", 5 * time.Second}, step{"P1.presence=away", time.Minute}),
		Judge: func(cr *CaseRun) (bool, string) {
			if len(cr.TB.Integration.Notifications()) == 0 {
				return true, "no warning delivered"
			}
			return false, "warning delivered"
		},
	}, {
		ID: 10, Type: "disabled",
		Trigger: "Presence away", Condition: "Front door unlocked",
		Action:      "Lock the front door",
		Consequence: "door not locked",
		Devices:     []string{"P1", "LK1"},
		Hijacks:     []string{"LK1", "P1"},
		Rules:       []rules.Rule{rules.MustParse(`lock-when-leaving: WHEN P1.presence=away IF LK1.lock=unlocked THEN LK1.lock=locked`)},
		Prepare:     prepare("P1.presence=present", "LK1.lock=locked"),
		Attack:      reorder(core.DisabledExecution, "LK1", "P1"),
		// Leaving home: unlock, walk out, depart.
		Scenario: play(step{"LK1.lock=unlocked", 5 * time.Second}, step{"P1.presence=away", time.Minute}),
		Judge:    stateIs("LK1.lock=unlocked", "door left unlocked all day", "door locked automatically"),
	}, {
		ID: 11, Type: "disabled",
		Trigger: "Presence away", Condition: "Heater is on",
		Action:      "Turn off heater",
		Consequence: "heater not turned off",
		Devices:     []string{"P1", "T1"},
		Hijacks:     []string{"T1", "P1"},
		Rules:       []rules.Rule{rules.MustParse(`heater-off-when-leaving: WHEN P1.presence=away IF T1.heating=on THEN T1.heating=off`)},
		Prepare:     prepare("P1.presence=present", "T1.heating=off"),
		Attack:      reorder(core.DisabledExecution, "T1", "P1"),
		Scenario:    play(step{"T1.heating=on", 5 * time.Second}, step{"P1.presence=away", time.Minute}),
		Judge:       stateIs("T1.heating=on", "heater left running", "heater turned off"),
	}}
}

// fire triggers a device event written dev.attr=value.
func fire(cr *CaseRun, event string) error {
	dev, attr, value := splitEvent(event)
	return cr.Trigger(dev, attr, value)
}

func splitEvent(event string) (dev, attr, value string) {
	devAttr, value, _ := strings.Cut(event, "=")
	dev, attr, _ = strings.Cut(devAttr, ".")
	return dev, attr, value
}

// prepare sets the initial device states, ignoring their errors.
func prepare(events ...string) func(*CaseRun) {
	return func(cr *CaseRun) {
		for _, ev := range events {
			_ = fire(cr, ev)
		}
	}
}

// step is one beat of a scenario: an event, then run of virtual time.
type step struct {
	event string
	run   time.Duration
}

// play fires each step's event and then runs the clock for the step.
func play(steps ...step) func(*CaseRun) error {
	return func(cr *CaseRun) error {
		for _, s := range steps {
			if err := fire(cr, s.event); err != nil {
				return err
			}
			cr.Run(s.run)
		}
		return nil
	}
}

// holdEvent is the e-Delay of Cases 1, 2 and 4: it holds dev's next event
// for hold.
func holdEvent(dev string, hold time.Duration) func(*CaseRun) error {
	return func(cr *CaseRun) error {
		h, err := cr.Hijack(dev)
		if err != nil {
			return err
		}
		h.EDelay(dev, hold)
		return nil
	}
}

// reorder is the Type-III attack of Cases 5–11: it holds held's next
// event until watched's event has passed, plus 5 s, so the server runs
// the rule against a stale condition. exec is core.SpuriousExecution or
// core.DisabledExecution, which name the two outcomes of one choreography.
func reorder(exec func(*core.Hijacker, string, *core.Hijacker, string, time.Duration) *core.DelayOp, held, watched string) func(*CaseRun) error {
	return func(cr *CaseRun) error {
		hHeld, err := cr.Hijack(held)
		if err != nil {
			return err
		}
		hWatched, err := cr.Hijack(watched)
		if err != nil {
			return err
		}
		exec(hHeld, held, hWatched, watched, 5*time.Second)
		return nil
	}
}

// stateIs judges a consequence that is one device state, written
// dev.attr=value: yes details the state holding, no its absence.
func stateIs(event, yes, no string) func(*CaseRun) (bool, string) {
	dev, attr, value := splitEvent(event)
	return func(cr *CaseRun) (bool, string) {
		if cr.TB.Device(dev).State(attr) == value {
			return true, yes
		}
		return false, no
	}
}

// lateNotificationJudge treats a notification slower than threshold as the
// consequence ("late alert").
func lateNotificationJudge(threshold time.Duration) func(*CaseRun) (bool, string) {
	return func(cr *CaseRun) (bool, string) {
		lat, ok := notificationLatency(cr.TB)
		if !ok {
			return false, "no notification delivered"
		}
		return lat >= threshold, "notification after " + lat.Round(time.Millisecond).String()
	}
}
