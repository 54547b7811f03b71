// Package rules implements the trigger-condition-action (TCA) automation
// model IoT platforms execute (Section II-B of the paper): when the
// trigger event is received, if the condition evaluates true against the
// server's view of device states, the actions run.
//
// The engine evaluates conditions against *received* state — the
// cyber-world's possibly-stale copy of the physical world. That gap is
// precisely what the Type-III attacks exploit: delaying the event that
// would have flipped a condition makes the server execute (or skip) an
// action against reality.
package rules

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/simtime"
)

// Event is a device state update as seen by the automation server.
type Event struct {
	Device    string
	Attribute string
	Value     string
	// GeneratedAt is the device-side timestamp carried in the message.
	GeneratedAt simtime.Time
	// ReceivedAt is when the server received it.
	ReceivedAt simtime.Time
}

// String renders the event for traces.
func (e Event) String() string {
	return fmt.Sprintf("%s.%s=%s (gen %v, rcv %v)", e.Device, e.Attribute, e.Value, e.GeneratedAt, e.ReceivedAt)
}

// Trigger matches events that fire a rule. An empty Value matches any
// value change of the attribute.
type Trigger struct {
	Device    string
	Attribute string
	Value     string
}

func (t Trigger) matches(e Event) bool {
	return t.Device == e.Device && t.Attribute == e.Attribute &&
		(t.Value == "" || t.Value == e.Value)
}

// String renders the trigger.
func (t Trigger) String() string {
	v := t.Value
	if v == "" {
		v = "*"
	}
	return fmt.Sprintf("%s.%s=%s", t.Device, t.Attribute, v)
}

// Condition is a boolean predicate over the server's state store.
type Condition interface {
	Eval(s *Store) bool
	String() string
}

// Eq is true when a device attribute currently equals a value.
type Eq struct {
	Device    string
	Attribute string
	Value     string
}

// Eval implements Condition.
func (c Eq) Eval(s *Store) bool {
	v, _, ok := s.Get(c.Device, c.Attribute)
	return ok && v == c.Value
}

// String renders the condition.
func (c Eq) String() string { return fmt.Sprintf("%s.%s==%s", c.Device, c.Attribute, c.Value) }

// Not negates a condition.
type Not struct{ C Condition }

// Eval implements Condition.
func (c Not) Eval(s *Store) bool { return !c.C.Eval(s) }

// String renders the condition.
func (c Not) String() string { return "!(" + c.C.String() + ")" }

// And is true when all children are true.
type And []Condition

// Eval implements Condition.
func (c And) Eval(s *Store) bool {
	for _, sub := range c {
		if !sub.Eval(s) {
			return false
		}
	}
	return true
}

// String renders the condition.
func (c And) String() string { return joinConds([]Condition(c), " && ") }

// Or is true when any child is true.
type Or []Condition

// Eval implements Condition.
func (c Or) Eval(s *Store) bool {
	for _, sub := range c {
		if sub.Eval(s) {
			return true
		}
	}
	return false
}

// String renders the condition.
func (c Or) String() string { return joinConds([]Condition(c), " || ") }

func joinConds(cs []Condition, sep string) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// ActionKind distinguishes device commands from user notifications.
type ActionKind int

// Action kinds.
const (
	// ActionCommand drives an actuator.
	ActionCommand ActionKind = iota + 1
	// ActionNotify pushes a message to the user's phone.
	ActionNotify
)

// Action is one rule consequence.
type Action struct {
	Kind ActionKind
	// Device, Attribute and Value describe a command.
	Device    string
	Attribute string
	Value     string
	// Message is the notification text.
	Message string
}

// String renders the action.
func (a Action) String() string {
	if a.Kind == ActionNotify {
		return fmt.Sprintf("notify(%q)", a.Message)
	}
	return fmt.Sprintf("command(%s.%s=%s)", a.Device, a.Attribute, a.Value)
}

// Rule is one TCA automation.
type Rule struct {
	Name      string
	Trigger   Trigger
	Condition Condition // nil means always true
	Actions   []Action
}

// Validate reports structural problems with the rule.
func (r Rule) Validate() error {
	if r.Name == "" {
		return errors.New("rules: rule needs a name")
	}
	if r.Trigger.Device == "" || r.Trigger.Attribute == "" {
		return fmt.Errorf("rules: rule %q has an incomplete trigger", r.Name)
	}
	if len(r.Actions) == 0 {
		return fmt.Errorf("rules: rule %q has no actions", r.Name)
	}
	for _, a := range r.Actions {
		switch a.Kind {
		case ActionCommand:
			if a.Device == "" || a.Attribute == "" {
				return fmt.Errorf("rules: rule %q has an incomplete command action", r.Name)
			}
		case ActionNotify:
			if a.Message == "" {
				return fmt.Errorf("rules: rule %q has an empty notification", r.Name)
			}
		default:
			return fmt.Errorf("rules: rule %q has an unknown action kind", r.Name)
		}
	}
	return nil
}

// Store is the server's view of device states.
type Store struct {
	values map[stateKey]stateEntry
}

type stateKey struct {
	device    string
	attribute string
}

type stateEntry struct {
	value     string
	updatedAt simtime.Time
}

// NewStore creates an empty state store.
func NewStore() *Store {
	return &Store{values: make(map[stateKey]stateEntry)}
}

// Set records a device attribute value.
func (s *Store) Set(device, attribute, value string, at simtime.Time) {
	s.values[stateKey{device, attribute}] = stateEntry{value: value, updatedAt: at}
}

// Get returns the stored value and its update time.
func (s *Store) Get(device, attribute string) (string, simtime.Time, bool) {
	e, ok := s.values[stateKey{device, attribute}]
	return e.value, e.updatedAt, ok
}

// Execution records one fired action.
type Execution struct {
	At     simtime.Time
	Rule   string
	Action Action
	Cause  Event
}

// Engine evaluates rules against incoming events.
type Engine struct {
	clk   *simtime.Clock
	store *Store
	rules []Rule
	trace []Execution

	// Execute dispatches a fired action (send the command, push the
	// notification). Wired by the hosting server.
	Execute func(Action, Event)
}

// NewEngine creates an engine with an empty store.
func NewEngine(clk *simtime.Clock) *Engine {
	return &Engine{clk: clk, store: NewStore()}
}

// AddRule validates and installs a rule.
func (e *Engine) AddRule(r Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	e.rules = append(e.rules, r)
	return nil
}

// Trace returns all fired actions so far.
func (e *Engine) Trace() []Execution {
	out := make([]Execution, len(e.trace))
	copy(out, e.trace)
	return out
}

// Executions returns fired actions for one rule.
func (e *Engine) Executions(rule string) []Execution {
	var out []Execution
	for _, x := range e.trace {
		if x.Rule == rule {
			out = append(out, x)
		}
	}
	return out
}

// HandleEvent ingests a device event: the store updates first (the
// platform's view includes the triggering update itself), then every rule
// whose trigger matches evaluates its condition and fires.
func (e *Engine) HandleEvent(ev Event) {
	e.store.Set(ev.Device, ev.Attribute, ev.Value, ev.ReceivedAt)
	for _, r := range e.rules {
		if !r.Trigger.matches(ev) {
			continue
		}
		if r.Condition != nil && !r.Condition.Eval(e.store) {
			continue
		}
		for _, a := range r.Actions {
			e.trace = append(e.trace, Execution{At: e.clk.Now(), Rule: r.Name, Action: a, Cause: ev})
			if e.Execute != nil {
				e.Execute(a, ev)
			}
		}
	}
}
