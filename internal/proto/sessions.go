package proto

// Sessions is a server's table of device sessions: the live session of
// each device ID, and the sessions a reconnect superseded, which linger
// half-open (Finding 2). The zero value is an empty table.
type Sessions[S comparable] struct {
	live     map[string]S
	halfOpen map[string][]S
}

// Bind makes s the live session of id. A live session it supersedes
// lingers half-open, and nothing is raised.
func (t *Sessions[S]) Bind(id string, s S) {
	if old, ok := t.live[id]; ok && old != s {
		if t.halfOpen == nil {
			t.halfOpen = make(map[string][]S)
		}
		t.halfOpen[id] = append(t.halfOpen[id], old)
	}
	if t.live == nil {
		t.live = make(map[string]S)
	}
	t.live[id] = s
}

// Drop removes s, which has ended, and reports whether it was the live
// session of id. A half-open session ending is unremarkable: the device
// has a live replacement.
func (t *Sessions[S]) Drop(id string, s S) bool {
	ho := t.halfOpen[id]
	for i, old := range ho {
		if old == s {
			t.halfOpen[id] = append(ho[:i], ho[i+1:]...)
			return false
		}
	}
	if live, ok := t.live[id]; !ok || live != s {
		return false
	}
	delete(t.live, id)
	return true
}

// Live returns the live session of id.
func (t *Sessions[S]) Live(id string) (S, bool) {
	s, ok := t.live[id]
	return s, ok
}

// HalfOpen reports how many superseded sessions linger for id.
func (t *Sessions[S]) HalfOpen(id string) int { return len(t.halfOpen[id]) }
