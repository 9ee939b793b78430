// Package sim provides the discrete-event simulation core used by every
// other package in this repository: a virtual clock, a cancellable event
// queue with deterministic ordering, and a seeded random source.
//
// Nothing in the simulation reads wall-clock time. A Scheduler starts at
// time zero and advances only when Run, RunUntil, RunFor or Step executes
// pending events, so simulations involving hours of 1200 bps airtime
// complete in milliseconds and are exactly reproducible for a given seed
// and event ordering.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is an instant in virtual time, measured as a duration since the
// simulation epoch (time zero, when the Scheduler was created).
type Time time.Duration

// Add returns t advanced by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the time.Duration since the epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

func (t Time) String() string { return fmt.Sprintf("T+%v", time.Duration(t)) }

// Event is a scheduled callback. Events are single-shot; rescheduling
// creates a new Event. The zero value is not usable; events are created
// by Scheduler.At and Scheduler.After.
//
// Event objects are pooled: once an event has fired or been cancelled,
// the scheduler may hand the same *Event out again from a later At or
// After. Holders must therefore follow the one-shot timer discipline —
// clear or overwrite a stored event pointer inside its own callback (or
// right after Cancel), and never Cancel or query Cancelled through a
// pointer whose event may already have fired: a recycled event is live
// again, so a stale handle aliases someone else's timer. During an
// event's own callback the pointer is still valid (recycling happens
// after the callback returns), so cancelling or inspecting the firing
// event from inside it is safe.
type Event struct {
	when  Time
	index int // heap index, -1 when not queued
	fn    func()
}

// When reports the virtual time at which the event fires.
func (e *Event) When() Time { return e.when }

// Cancelled reports whether the event has been cancelled or has already
// fired.
func (e *Event) Cancelled() bool { return e.index < 0 }

// eventSlot is one entry of the pending-event heap. The ordering key
// (when, seq) lives in the slot itself, so sifting compares slots
// without dereferencing their events; seq is the tiebreak that makes
// equal-time events run in schedule order.
type eventSlot struct {
	when Time
	seq  uint64
	ev   *Event
}

func (a *eventSlot) before(b *eventSlot) bool {
	return a.when < b.when || a.when == b.when && a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of slots ordered by (when, seq), with
// each queued event's index kept equal to its slot position. Keys are
// unique, so every valid heap pops the same sequence: the queue's
// shape is invisible to the simulation. Sifts move a hole rather than
// swapping, writing each displaced slot once.
type eventQueue []eventSlot

// up places x at or above hole i.
func (q eventQueue) up(i int, x eventSlot) {
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = x
	x.ev.index = i
}

// down places x at or below hole i.
func (q eventQueue) down(i int, x eventSlot) {
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&x) {
			break
		}
		q[i] = q[m]
		q[i].ev.index = i
		i = m
	}
	q[i] = x
	x.ev.index = i
}

// fix places x at hole i, sifting whichever way its key requires.
func (q eventQueue) fix(i int, x eventSlot) {
	if i > 0 && x.before(&q[(i-1)/4]) {
		q.up(i, x)
	} else {
		q.down(i, x)
	}
}

func (q *eventQueue) push(x eventSlot) {
	*q = append(*q, eventSlot{})
	q.up(len(*q)-1, x)
}

// remove takes the slot at i out of the heap and returns its event,
// marked unqueued.
func (q *eventQueue) remove(i int) *Event {
	old := *q
	n := len(old) - 1
	e := old[i].ev
	last := old[n]
	old[n] = eventSlot{}
	*q = old[:n]
	if i < n {
		q.fix(i, last)
	}
	e.index = -1
	return e
}

// Scheduler owns the virtual clock and the pending event queue. A
// Scheduler is not safe for concurrent use: the entire simulation runs
// single-threaded inside the event loop, which is what makes runs
// deterministic.
type Scheduler struct {
	now   Time
	queue eventQueue
	seq   uint64
	rng   Stream
	fired uint64

	// free is the pool of fired/cancelled events awaiting reuse, which
	// keeps the hot After+Step path allocation-free (the per-byte→burst
	// datapath schedules millions of short-lived events per run).
	free []*Event

	seed    int64
	derived uint64

	// deriveFn, when non-nil, redirects DeriveSeed to a shared source.
	// The sharded engine points every shard scheduler at one Group-wide
	// counter so a world built across K shards consumes the exact same
	// derived-seed sequence as the same construction code running on a
	// single scheduler — the root of the engines' bit-equivalence.
	deriveFn func() int64

	// EventHook, when non-nil, observes every fired event (after the
	// clock advances, before the callback runs). It must not schedule
	// or cancel events: it is a flight-recorder tap, and the nil check
	// is the only cost when unset.
	EventHook func(now Time)
}

// NewScheduler returns a Scheduler with its clock at time zero and a
// random stream seeded with seed, built at its first draw.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: NewStream(seed), seed: seed}
}

// DeriveSeed returns a fresh deterministic seed for a component that
// wants its own private random stream (the serial corruption model,
// for one). Successive calls return distinct values in a sequence
// fixed by the scheduler's seed, without consuming anything from the
// shared Rand stream — so adding a derived-seed user never perturbs
// existing seeded scenarios.
func (s *Scheduler) DeriveSeed() int64 {
	if s.deriveFn != nil {
		return s.deriveFn()
	}
	s.derived++
	// splitmix64 over (seed, call index).
	x := uint64(s.seed) + 0x9e3779b97f4a7c15*s.derived
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand exposes the scheduler's shared deterministic random stream,
// built at its first draw. Randomized behaviour without a private
// stream (RSPF jitter, TCP initial sequence numbers, experiment
// traffic) draws from it so runs are reproducible; components whose
// draws must not depend on anyone else's (CSMA persistence, bit
// errors, serial corruption) seed a Stream from DeriveSeed instead.
func (s *Scheduler) Rand() *rand.Rand { return s.rng.Rand() }

// Pending reports the number of events waiting to fire.
func (s *Scheduler) Pending() int { return len(s.queue) }

// Fired reports how many events have executed since creation.
func (s *Scheduler) Fired() uint64 { return s.fired }

// At schedules fn to run at virtual time t. Scheduling in the past (or
// at the present instant) runs the event at the current time but after
// all previously scheduled events for that time. The returned Event may
// be cancelled until it fires.
func (s *Scheduler) At(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: At called with nil func")
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = new(Event)
	}
	*e = Event{when: t, fn: fn, index: -1}
	s.queue.push(eventSlot{when: t, seq: s.seq, ev: e})
	return e
}

// After schedules fn to run d from now. Negative d behaves as zero.
func (s *Scheduler) After(d time.Duration, fn func()) *Event {
	return s.At(s.now.Add(d), fn)
}

// Reschedule moves a still-pending event to fire at t instead, keeping
// the same callback. Times in the past clamp to now. The event is
// re-sequenced as if freshly scheduled, so among same-instant events it
// runs after everything already queued for t — exactly the ordering a
// Cancel followed by At would produce, without cycling the event
// through the free list (the radio channel's carrier-edge wakeups
// slide one wake event around instead of burning a fresh event per
// CSMA slot). Rescheduling a fired or cancelled event returns false
// and does nothing: the pointer may already belong to someone else's
// timer (see the pooling discipline above).
func (s *Scheduler) Reschedule(e *Event, t Time) bool {
	if e == nil || e.index < 0 {
		return false
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	e.when = t
	s.queue.fix(e.index, eventSlot{when: t, seq: s.seq, ev: e})
	return true
}

// Cancel removes e from the queue. Cancelling an already-fired or
// already-cancelled event is a no-op. Returns whether the event was
// actually removed.
func (s *Scheduler) Cancel(e *Event) bool {
	if e == nil || e.index < 0 {
		return false
	}
	s.queue.remove(e.index)
	e.fn = nil
	s.free = append(s.free, e)
	return true
}

// Step executes the single earliest pending event, advancing the clock
// to its deadline. It reports false when no events remain.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue.remove(0)
	s.now = e.when
	s.fired++
	if s.EventHook != nil {
		s.EventHook(s.now)
	}
	fn := e.fn
	e.fn = nil
	fn()
	// Recycle only after the callback returns, so code running inside
	// the callback may still Cancel or inspect the firing event safely.
	s.free = append(s.free, e)
	return true
}

// Run executes events until the queue is empty. It returns the number
// of events executed.
func (s *Scheduler) Run() uint64 {
	start := s.fired
	for s.Step() {
	}
	return s.fired - start
}

// RunUntil executes events with deadlines <= t, then advances the clock
// to exactly t (even if the queue still holds later events).
func (s *Scheduler) RunUntil(t Time) uint64 { return s.RunUntilDone(t, nil) }

// RunUntilDone is RunUntil that also returns, with the clock left at
// the last event executed, as soon as done (when non-nil) reports true
// after an event. The stop belongs to this one call: nothing a callback
// does can cut a later run short.
func (s *Scheduler) RunUntilDone(t Time, done func() bool) uint64 {
	start := s.fired
	for len(s.queue) > 0 && s.queue[0].when <= t {
		s.Step()
		if done != nil && done() {
			return s.fired - start
		}
	}
	if s.now < t {
		s.now = t
	}
	return s.fired - start
}

// RunBefore executes events with deadlines strictly before t and stops
// without touching the clock otherwise: unlike RunUntil it neither runs
// events at exactly t nor advances now to t. The sharded engine's
// window loop uses it — a window bound is a safety horizon, not a time
// the shard has reached, so the clock must stay at the last event
// actually processed (the shard's earliest-output-time computation
// reads the head of the queue, not the clock).
func (s *Scheduler) RunBefore(t Time) uint64 {
	start := s.fired
	for len(s.queue) > 0 && s.queue[0].when < t {
		s.Step()
	}
	return s.fired - start
}

// RunFor advances the simulation d beyond the current time.
func (s *Scheduler) RunFor(d time.Duration) uint64 {
	return s.RunUntil(s.now.Add(d))
}

// Ticker invokes fn every period until the returned stop function is
// called. The first invocation happens one period from now.
type Ticker struct {
	stop func()
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	if t.stop != nil {
		t.stop()
		t.stop = nil
	}
}

// Every schedules fn to run every period. fn runs inside the event loop.
func (s *Scheduler) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	t := &Ticker{}
	stopped := false
	var ev *Event
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			ev = s.After(period, tick)
		}
	}
	ev = s.After(period, tick)
	t.stop = func() {
		stopped = true
		s.Cancel(ev)
	}
	return t
}
