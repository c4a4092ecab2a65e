package eventq

import (
	"testing"
)

// calls is the test handler: each event's pointer word is the func to
// run, so the tests read like the schedules they check.
type calls struct{}

func (calls) HandleEvent(now Time, _ int32, _ int64, p any) { p.(func(Time))(now) }

func newQueue() *Queue {
	q := New()
	q.SetHandler(calls{})
	return q
}

func callAt(q *Queue, t Time, fn func(Time)) Handle    { return q.PostAt(t, 0, 0, fn) }
func callAfter(q *Queue, d Time, fn func(Time)) Handle { return q.PostAfter(d, 0, 0, fn) }

func TestOrderingByTime(t *testing.T) {
	q := newQueue()
	var got []int
	callAt(q, 30, func(Time) { got = append(got, 3) })
	callAt(q, 10, func(Time) { got = append(got, 1) })
	callAt(q, 20, func(Time) { got = append(got, 2) })
	q.Drain(100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order %v, want [1 2 3]", got)
	}
	if q.Now() != 30 {
		t.Errorf("Now = %d, want 30", q.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	q := newQueue()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		callAt(q, 5, func(Time) { got = append(got, i) })
	}
	q.Drain(100)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events ran out of insertion order: %v", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	q := newQueue()
	var at Time
	callAt(q, 42, func(now Time) { at = now })
	q.Step()
	if at != 42 || q.Now() != 42 {
		t.Errorf("event saw time %d, queue at %d; want 42", at, q.Now())
	}
}

func TestAfterIsRelative(t *testing.T) {
	q := newQueue()
	var second Time
	callAt(q, 10, func(now Time) {
		callAfter(q, 5, func(n2 Time) { second = n2 })
	})
	q.Drain(100)
	if second != 15 {
		t.Errorf("PostAfter(5) from t=10 fired at %d, want 15", second)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	q := newQueue()
	callAt(q, 10, func(Time) {})
	q.Step()
	defer func() {
		if recover() == nil {
			t.Error("PostAt(5) at now=10 did not panic")
		}
	}()
	callAt(q, 5, func(Time) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	q := newQueue()
	defer func() {
		if recover() == nil {
			t.Error("PostAfter(-1) did not panic")
		}
	}()
	callAfter(q, -1, func(Time) {})
}

func TestCancel(t *testing.T) {
	q := newQueue()
	fired := false
	h := callAt(q, 10, func(Time) { fired = true })
	h.Cancel()
	q.Drain(100)
	if fired {
		t.Error("cancelled event fired")
	}
	if q.Fired() != 0 {
		t.Errorf("Fired = %d, want 0", q.Fired())
	}
	// Double cancel is a no-op.
	h.Cancel()
}

func TestRunHorizonExclusive(t *testing.T) {
	q := newQueue()
	var got []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		callAt(q, at, func(now Time) { got = append(got, now) })
	}
	n := q.Run(15)
	if n != 2 {
		t.Errorf("Run(15) executed %d events, want 2 (horizon exclusive)", n)
	}
	if q.Now() != 15 {
		t.Errorf("Now = %d, want 15 after Run(15)", q.Now())
	}
	n = q.Run(100)
	if n != 2 {
		t.Errorf("second Run executed %d, want 2", n)
	}
	if len(got) != 4 {
		t.Errorf("events fired: %v", got)
	}
}

func TestRunAdvancesClockOnEmptyQueue(t *testing.T) {
	q := newQueue()
	q.Run(50)
	if q.Now() != 50 {
		t.Errorf("Now = %d, want 50", q.Now())
	}
}

func TestSelfRescheduling(t *testing.T) {
	q := newQueue()
	count := 0
	var tick func(Time)
	tick = func(now Time) {
		count++
		if count < 10 {
			callAfter(q, 3, tick)
		}
	}
	callAfter(q, 3, tick)
	q.Drain(1000)
	if count != 10 {
		t.Errorf("ticks = %d, want 10", count)
	}
	if q.Now() != 30 {
		t.Errorf("Now = %d, want 30", q.Now())
	}
}

func TestDrainRunawayGuard(t *testing.T) {
	q := newQueue()
	var loop func(Time)
	loop = func(Time) { callAfter(q, 1, loop) }
	callAfter(q, 1, loop)
	defer func() {
		if recover() == nil {
			t.Error("runaway Drain did not panic")
		}
	}()
	q.Drain(100)
}

func TestCancelledBuriedEventsSkippedByRun(t *testing.T) {
	q := newQueue()
	var hs []Handle
	for i := 0; i < 5; i++ {
		hs = append(hs, callAt(q, Time(i+1), func(Time) {}))
	}
	for _, h := range hs {
		h.Cancel()
	}
	callAt(q, 10, func(Time) {})
	if n := q.Run(20); n != 1 {
		t.Errorf("Run executed %d events, want 1", n)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	q := newQueue()
	if q.Step() {
		t.Error("Step on empty queue returned true")
	}
	h := callAt(q, 1, func(Time) {})
	h.Cancel()
	if q.Step() {
		t.Error("Step with only cancelled events returned true")
	}
}
