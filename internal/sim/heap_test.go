package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refEvent is the reference model's view of one pending event.
type refEvent struct {
	when Time
	seq  uint64
	id   int
	ev   *Event
}

// schedModel drives a Scheduler with a byte-coded op stream and checks
// it, after every op, against a plain slice of pending events sorted
// by (when, seq) on demand: pop order, the clock, Pending, and that
// every queued event's index names its own heap slot.
type schedModel struct {
	t       testing.TB
	s       *Scheduler
	seq     uint64 // mirrors Scheduler.seq: bumped by At and Reschedule
	nextID  int
	pending []refEvent
	fired   []int
}

func newSchedModel(t testing.TB) *schedModel {
	return &schedModel{t: t, s: NewScheduler(1)}
}

// at schedules a recording event at t through the scheduler and the
// model alike.
func (m *schedModel) at(t Time) {
	id := m.nextID
	m.nextID++
	e := m.s.At(t, func() { m.fired = append(m.fired, id) })
	if t < m.s.now {
		t = m.s.now
	}
	m.seq++
	m.pending = append(m.pending, refEvent{when: t, seq: m.seq, id: id, ev: e})
}

// sorted returns the model's pending events in expected pop order.
func (m *schedModel) sorted() []refEvent {
	out := append([]refEvent(nil), m.pending...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].when != out[j].when {
			return out[i].when < out[j].when
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// expectFired pops want off the model and checks the scheduler fired
// exactly those events, in that order.
func (m *schedModel) expectFired(op string, want []refEvent) {
	m.t.Helper()
	if len(m.fired) != len(want) {
		m.t.Fatalf("%s fired %d events, want %d", op, len(m.fired), len(want))
	}
	for i, r := range want {
		if m.fired[i] != r.id {
			m.t.Fatalf("%s: pop %d fired event %d, want %d (when %v seq %d)", op, i, m.fired[i], r.id, r.when, r.seq)
		}
	}
	gone := make(map[int]bool, len(want))
	for _, r := range want {
		gone[r.id] = true
	}
	kept := m.pending[:0]
	for _, r := range m.pending {
		if !gone[r.id] {
			kept = append(kept, r)
		}
	}
	m.pending = kept
	m.fired = m.fired[:0]
	if len(want) > 0 && m.s.Now() != want[len(want)-1].when {
		m.t.Fatalf("%s: clock %v, want %v", op, m.s.Now(), want[len(want)-1].when)
	}
}

// check verifies the heap against the model.
func (m *schedModel) check(op string) {
	m.t.Helper()
	q := m.s.queue
	if len(q) != len(m.pending) || m.s.Pending() != len(m.pending) {
		m.t.Fatalf("after %s: %d queued, model has %d", op, len(q), len(m.pending))
	}
	for i := range q {
		if q[i].ev.index != i {
			m.t.Fatalf("after %s: slot %d holds an event indexed %d", op, i, q[i].ev.index)
		}
		if q[i].ev.when != q[i].when {
			m.t.Fatalf("after %s: slot %d keyed %v, event says %v", op, i, q[i].when, q[i].ev.when)
		}
		if i > 0 && q[i].before(&q[(i-1)/4]) {
			m.t.Fatalf("after %s: slot %d orders before its parent", op, i)
		}
	}
	for _, r := range m.pending {
		if r.ev.Cancelled() || q[r.ev.index].ev != r.ev || r.ev.When() != r.when {
			m.t.Fatalf("after %s: pending event %d lost its slot", op, r.id)
		}
	}
}

// apply runs one op. Delays are a few milliseconds so equal-time ties,
// resolved by seq, are common.
func (m *schedModel) apply(op, arg byte) {
	m.t.Helper()
	now := m.s.Now()
	d := time.Duration(arg%16) * time.Millisecond
	var name string
	switch op % 7 {
	case 0:
		name = "At"
		m.at(now.Add(d))
	case 1:
		name = "At(past)"
		m.at(now.Add(-d))
	case 2:
		name = "Cancel"
		if len(m.pending) == 0 {
			return
		}
		k := int(arg) % len(m.pending)
		r := m.pending[k]
		if !m.s.Cancel(r.ev) {
			m.t.Fatalf("Cancel of pending event %d returned false", r.id)
		}
		if !r.ev.Cancelled() {
			m.t.Fatalf("cancelled event %d still reports queued", r.id)
		}
		m.pending = append(m.pending[:k], m.pending[k+1:]...)
	case 3:
		name = "Reschedule"
		if len(m.pending) == 0 {
			return
		}
		k := int(arg) % len(m.pending)
		// Targets straddle now, so some clamp.
		t := now.Add(time.Duration(int(arg%24)-6) * time.Millisecond)
		if !m.s.Reschedule(m.pending[k].ev, t) {
			m.t.Fatalf("Reschedule of pending event %d returned false", m.pending[k].id)
		}
		if t < now {
			t = now
		}
		m.seq++
		m.pending[k].when, m.pending[k].seq = t, m.seq
	case 4, 5:
		name = "Step"
		want := m.sorted()
		if len(want) > 1 {
			want = want[:1]
		}
		if m.s.Step() != (len(want) == 1) {
			m.t.Fatalf("Step with %d pending reported the wrong result", len(m.pending))
		}
		m.expectFired(name, want)
	case 6:
		name = "RunBefore"
		bound := now.Add(d)
		var want []refEvent
		for _, r := range m.sorted() {
			if r.when >= bound {
				break
			}
			want = append(want, r)
		}
		if n := m.s.RunBefore(bound); n != uint64(len(want)) {
			m.t.Fatalf("RunBefore(%v) reported %d events, want %d", bound, n, len(want))
		}
		m.expectFired(name, want)
	}
	m.check(name)
}

// run applies data two bytes at a time, then drains the queue.
func (m *schedModel) run(data []byte) {
	m.t.Helper()
	for i := 0; i+1 < len(data); i += 2 {
		m.apply(data[i], data[i+1])
	}
	want := m.sorted()
	m.s.Run()
	m.expectFired("Run", want)
	m.check("Run")
}

// TestSchedulerMatchesSortedReference drives long random op streams
// through the heap and requires pop order, clock and Event.index to
// match the sorted (when, seq) reference after every operation.
func TestSchedulerMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4000)
		rng.Read(data)
		// Bias toward scheduling so the heap grows to a few hundred
		// events and sifts cross several 4-ary levels.
		for i := 0; i < len(data); i += 2 {
			if rng.Intn(3) == 0 {
				data[i] = 0
			}
		}
		newSchedModel(t).run(data)
	}
}

// FuzzScheduler runs the differential check on arbitrary op streams.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 0, 1, 4, 0, 4, 0, 4, 0})
	f.Add([]byte{0, 3, 0, 3, 3, 0, 2, 1, 1, 9, 6, 15, 5, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 3, 2, 3, 23, 2, 4, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		newSchedModel(t).run(data)
	})
}

// BenchmarkSchedulerChurn holds 576 pending cancellable timers — the
// mean heap size measured on the regional-rdm workload — and per op
// re-arms one (alternately Cancel+After and Reschedule) and fires the
// earliest, whose callback re-arms itself. Must report 0 allocs/op.
func BenchmarkSchedulerChurn(b *testing.B) {
	const timers = 576
	s := NewScheduler(1)
	x := uint32(1)
	delay := func() time.Duration {
		x = x*1664525 + 1013904223 // LCG: no math/rand on the hot path
		return time.Duration(x>>12%1000+1) * time.Millisecond
	}
	evs := make([]*Event, timers)
	fns := make([]func(), timers)
	for k := range fns {
		k := k
		fns[k] = func() { evs[k] = s.After(delay(), fns[k]) }
		evs[k] = s.After(delay(), fns[k])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % timers
		if i%2 == 0 {
			s.Cancel(evs[k])
			evs[k] = s.After(delay(), fns[k])
		} else {
			s.Reschedule(evs[k], s.Now().Add(delay()))
		}
		s.Step()
	}
	if s.Pending() != timers {
		b.Fatalf("%d timers pending, want %d", s.Pending(), timers)
	}
}
