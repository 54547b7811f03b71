package obs

import (
	"testing"
	"time"
)

func TestTraceMultiWrapKeepsNewestOldestFirst(t *testing.T) {
	tr := NewTrace(4)
	const n = 11 // wraps the ring almost three times
	for i := 0; i < n; i++ {
		tr.Emit(time.Duration(i)*time.Millisecond, "c", "e", "", int64(i))
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(n - 4 + i); ev.Value != want {
			t.Fatalf("event %d value = %d, want %d (oldest-first)", i, ev.Value, want)
		}
		if ev.At != time.Duration(ev.Value)*time.Millisecond {
			t.Fatalf("event %d timestamp %v does not match value %d", i, ev.At, ev.Value)
		}
	}
}

func TestTraceExactFillDoesNotEvict(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 3; i++ {
		tr.Emit(0, "c", "e", "", int64(i))
	}
	values := func() []int64 {
		var v []int64
		for _, ev := range tr.Events() {
			v = append(v, ev.Value)
		}
		return v
	}
	if got := values(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("exact fill holds %v, want [0 1 2]", got)
	}
	tr.Emit(0, "c", "e", "", 3)
	if got := values(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("one past capacity holds %v, want [1 2 3]", got)
	}
}

func TestTraceEventsIsACopy(t *testing.T) {
	tr := NewTrace(2)
	tr.Emit(0, "c", "e", "", 1)
	evs := tr.Events()
	tr.Emit(0, "c", "e", "", 2)
	tr.Emit(0, "c", "e", "", 3)
	if len(evs) != 1 || evs[0].Value != 1 {
		t.Fatalf("later events changed an earlier Events result: %+v", evs)
	}
}

// TestTraceZeroCapDiscards: a capacity of 0 or less is the recorder
// turned off, which drops every event.
func TestTraceZeroCapDiscards(t *testing.T) {
	for _, n := range []int{0, -1} {
		tr := NewTrace(n)
		if tr != nil {
			t.Fatalf("NewTrace(%d) = %+v, want nil (off)", n, tr)
		}
		tr.Emit(0, "c", "e", "", 1)
		if tr.Enabled() || tr.Events() != nil {
			t.Fatalf("NewTrace(%d) recorded an event", n)
		}
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.Emit(0, "c", "e", "", 0)
	if tr.Enabled() || tr.Events() != nil {
		t.Fatal("nil trace should read as empty and disabled")
	}
}

func TestSetTraceCapacityReplacesRing(t *testing.T) {
	r := NewRegistry()
	r.SetTraceCapacity(2)
	if !r.Trace().Enabled() {
		t.Fatal("SetTraceCapacity(2) left the recorder off")
	}
	r.Trace().Emit(0, "c", "old", "", 0)
	r.SetTraceCapacity(2)
	if evs := r.Trace().Events(); len(evs) != 0 {
		t.Fatalf("replaced ring kept %d events", len(evs))
	}
}
