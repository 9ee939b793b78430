package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerStartsAtZero(t *testing.T) {
	s := NewScheduler(1)
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := NewScheduler(1)
	var at Time
	s.After(3*time.Second, func() { at = s.Now() })
	s.Run()
	if at != Time(3*time.Second) {
		t.Fatalf("event fired at %v, want 3s", at)
	}
	if s.Now() != Time(3*time.Second) {
		t.Fatalf("clock = %v, want 3s", s.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.After(2*time.Second, func() { order = append(order, 2) })
	s.After(1*time.Second, func() { order = append(order, 1) })
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestEqualTimeEventsRunInScheduleOrder(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO at equal times)", i, v, i)
		}
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	s := NewScheduler(1)
	var fired Time = -1
	s.After(5*time.Second, func() {
		s.At(0, func() { fired = s.Now() })
	})
	s.Run()
	if fired != Time(5*time.Second) {
		t.Fatalf("past-scheduled event fired at %v, want 5s (clamped)", fired)
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	e := s.After(time.Second, func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(e) {
		t.Fatal("second Cancel returned true")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelFromWithinEvent(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	e := s.After(2*time.Second, func() { fired = true })
	s.After(1*time.Second, func() { s.Cancel(e) })
	s.Run()
	if fired {
		t.Fatal("event fired after being cancelled by an earlier event")
	}
}

func TestRunUntilAdvancesClockEvenWithoutEvents(t *testing.T) {
	s := NewScheduler(1)
	s.RunUntil(Time(10 * time.Second))
	if s.Now() != Time(10*time.Second) {
		t.Fatalf("clock = %v, want 10s", s.Now())
	}
}

func TestRunUntilDoesNotRunLaterEvents(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	s.After(5*time.Second, func() { fired = true })
	s.RunUntil(Time(4 * time.Second))
	if fired {
		t.Fatal("event beyond RunUntil deadline fired")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
	s.RunUntil(Time(5 * time.Second))
	if !fired {
		t.Fatal("event at deadline should fire")
	}
}

func TestRunFor(t *testing.T) {
	s := NewScheduler(1)
	s.RunFor(2 * time.Second)
	s.RunFor(3 * time.Second)
	if s.Now() != Time(5*time.Second) {
		t.Fatalf("clock = %v, want 5s", s.Now())
	}
}

// TestRunUntilDoneStopsRun: the run returns right after the event that
// makes done true, with the clock there, and the stop ends with it —
// the next run goes on to its own target.
func TestRunUntilDoneStopsRun(t *testing.T) {
	s := NewScheduler(1)
	var count int
	for i := 1; i <= 10; i++ {
		s.After(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunUntilDone(Time(time.Minute), func() bool { return count == 3 })
	if count != 3 {
		t.Fatalf("executed %d events before the stop, want 3", count)
	}
	if s.Pending() != 7 || s.Now() != Time(3*time.Second) {
		t.Fatalf("Pending() = %d at %v, want 7 at 3s", s.Pending(), s.Now())
	}
	s.RunUntil(Time(time.Minute))
	if count != 10 || s.Now() != Time(time.Minute) {
		t.Fatalf("the next run stopped at %v after %d events, want 1m0s and 10", s.Now(), count)
	}
}

func TestEveryTicksAndStops(t *testing.T) {
	s := NewScheduler(1)
	var ticks []Time
	tk := s.Every(time.Second, func() { ticks = append(ticks, s.Now()) })
	s.After(3500*time.Millisecond, func() { tk.Stop() })
	s.Run()
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3: %v", len(ticks), ticks)
	}
	for i, at := range ticks {
		want := Time(time.Duration(i+1) * time.Second)
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestEveryStopInsideCallback(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	var tk *Ticker
	tk = s.Every(time.Second, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	s.RunUntil(Time(10 * time.Second))
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestDeterministicRand(t *testing.T) {
	a := NewScheduler(42)
	b := NewScheduler(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same-seed schedulers diverged")
		}
	}
}

func TestFiredCounter(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 5; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	n := s.Run()
	if n != 5 || s.Fired() != 5 {
		t.Fatalf("Run() = %d, Fired() = %d, want 5, 5", n, s.Fired())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(time.Millisecond, recurse)
		}
	}
	s.After(time.Millisecond, recurse)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if s.Now() != Time(100*time.Millisecond) {
		t.Fatalf("clock = %v, want 100ms", s.Now())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the max delay.
func TestQuickOrderingInvariant(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler(7)
		var fireTimes []Time
		var max time.Duration
		for _, d := range delays {
			dur := time.Duration(d) * time.Millisecond
			if dur > max {
				max = dur
			}
			s.After(dur, func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Run()
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return len(delays) == 0 || s.Now() == Time(max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	a := Time(2 * time.Second)
	if a.Add(time.Second) != Time(3*time.Second) {
		t.Fatal("Add")
	}
	if a.Sub(Time(500*time.Millisecond)) != 1500*time.Millisecond {
		t.Fatal("Sub")
	}
	if a.Seconds() != 2.0 {
		t.Fatal("Seconds")
	}
	if a.String() != "T+2s" {
		t.Fatalf("String() = %q", a.String())
	}
}

func TestAfterStepDoesNotAllocate(t *testing.T) {
	s := NewScheduler(1)
	// Prime the pool and the heap slice.
	s.After(time.Microsecond, func() {})
	s.Step()
	avg := testing.AllocsPerRun(1000, func() {
		s.After(time.Microsecond, func() {})
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("After+Step allocates %.2f objects/op, want 0", avg)
	}
}

func TestEventPoolReusesFiredEvents(t *testing.T) {
	s := NewScheduler(1)
	e1 := s.After(time.Millisecond, func() {})
	s.Step()
	e2 := s.After(time.Millisecond, func() {})
	if e1 != e2 {
		t.Fatal("fired event was not recycled by the next After")
	}
	// A recycled event is live again: Cancel through the new pointer works.
	if !s.Cancel(e2) {
		t.Fatal("Cancel on recycled event failed")
	}
}

func TestCancelledEventIsRecycled(t *testing.T) {
	s := NewScheduler(1)
	e1 := s.After(time.Millisecond, func() {})
	s.Cancel(e1)
	fired := false
	e2 := s.After(time.Millisecond, func() { fired = true })
	if e1 != e2 {
		t.Fatal("cancelled event was not recycled")
	}
	s.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// The one-shot discipline: cancelling the firing event from inside its
// own callback must be a safe no-op (recycling happens only after the
// callback returns).
func TestCancelSelfInsideCallbackIsSafe(t *testing.T) {
	s := NewScheduler(1)
	var e *Event
	ran := false
	e = s.After(time.Millisecond, func() {
		ran = true
		if s.Cancel(e) {
			t.Error("Cancel of the firing event reported true")
		}
	})
	s.Run()
	if !ran {
		t.Fatal("event did not run")
	}
	// The event must not have been double-recycled: the next two After
	// calls must return distinct events.
	a := s.After(time.Millisecond, func() {})
	b := s.After(time.Millisecond, func() {})
	if a == b {
		t.Fatal("double recycle: two live events share one object")
	}
}

func TestAtNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil func")
		}
	}()
	NewScheduler(1).At(0, nil)
}

func TestRescheduleMovesEvent(t *testing.T) {
	s := NewScheduler(1)
	var at Time
	e := s.After(10*time.Millisecond, func() { at = s.Now() })
	if !s.Reschedule(e, Time(30*time.Millisecond)) {
		t.Fatal("Reschedule of a pending event returned false")
	}
	s.Run()
	if at != Time(30*time.Millisecond) {
		t.Fatalf("event fired at %v, want T+30ms", at)
	}
	if s.Fired() != 1 {
		t.Fatalf("fired %d events, want 1", s.Fired())
	}
}

func TestRescheduleEarlierAndPastClamp(t *testing.T) {
	s := NewScheduler(1)
	s.After(5*time.Millisecond, func() {})
	var at Time
	e := s.After(time.Second, func() { at = s.Now() })
	s.RunUntil(Time(5 * time.Millisecond))
	// Move to before now: clamps to the current instant.
	s.Reschedule(e, 0)
	s.Run()
	if at != Time(5*time.Millisecond) {
		t.Fatalf("event fired at %v, want clamp to T+5ms", at)
	}
}

func TestRescheduleOrdersAsFreshlyScheduled(t *testing.T) {
	s := NewScheduler(1)
	var order []string
	e := s.After(time.Millisecond, func() { order = append(order, "moved") })
	s.After(10*time.Millisecond, func() { order = append(order, "resident") })
	// Moving e onto the resident's instant must run it after the
	// resident, exactly as a fresh At(10ms) would.
	s.Reschedule(e, Time(10*time.Millisecond))
	s.Run()
	if len(order) != 2 || order[0] != "resident" || order[1] != "moved" {
		t.Fatalf("order = %v, want [resident moved]", order)
	}
}

func TestRescheduleDeadEventIsRefused(t *testing.T) {
	s := NewScheduler(1)
	e := s.After(time.Millisecond, func() {})
	s.Run()
	if s.Reschedule(e, Time(time.Second)) {
		t.Fatal("Reschedule of a fired event returned true")
	}
	s.Cancel(e)
	var ev *Event
	ev = s.After(time.Millisecond, func() { ev = nil })
	s.Cancel(ev)
	if s.Reschedule(ev, Time(time.Second)) {
		t.Fatal("Reschedule of a cancelled event returned true")
	}
	if s.Pending() != 0 {
		t.Fatalf("queue has %d events after refusals, want 0", s.Pending())
	}
}
