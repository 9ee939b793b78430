package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"packetradio/internal/sim"
)

// FlightEvent is one entry in the flight recorder: a timestamped,
// categorized instant (a scheduler event firing, a MAC transition, a
// DAMA protocol step).
type FlightEvent struct {
	T    sim.Time
	Cat  string // "sched", "mac", "dama", ...
	Name string
	Arg  string
}

// FlightRecorder is a bounded ring of recent events — the post-mortem
// instrument: always cheap enough to leave running. All methods are
// nil-safe so call sites can hold a recorder pointer that is nil when
// recording is off.
type FlightRecorder struct {
	buf     []FlightEvent
	next    int
	full    bool
	dropped uint64
}

// DefaultFlightCap is the default ring capacity: enough for several
// seconds of a saturated channel's scheduler activity.
const DefaultFlightCap = 4096

// NewFlightRecorder builds a recorder holding the last capacity
// events (<=0 takes DefaultFlightCap).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &FlightRecorder{buf: make([]FlightEvent, capacity)}
}

// Record appends one event, overwriting the oldest when full.
func (fr *FlightRecorder) Record(t sim.Time, cat, name, arg string) {
	if fr == nil {
		return
	}
	if fr.full {
		fr.dropped++
	}
	fr.buf[fr.next] = FlightEvent{T: t, Cat: cat, Name: name, Arg: arg}
	fr.next++
	if fr.next == len(fr.buf) {
		fr.next = 0
		fr.full = true
	}
}

// SchedHook adapts the recorder to sim.Scheduler.EventHook: every
// fired event becomes a "sched" entry named "event".
func (fr *FlightRecorder) SchedHook() func(t sim.Time) {
	return func(t sim.Time) { fr.Record(t, "sched", "event", "") }
}

// Len reports how many events are held.
func (fr *FlightRecorder) Len() int {
	if fr == nil {
		return 0
	}
	if fr.full {
		return len(fr.buf)
	}
	return fr.next
}

// Dropped reports how many events were overwritten.
func (fr *FlightRecorder) Dropped() uint64 {
	if fr == nil {
		return 0
	}
	return fr.dropped
}

// Events returns the held events oldest-first.
func (fr *FlightRecorder) Events() []FlightEvent {
	if fr == nil {
		return nil
	}
	if !fr.full {
		return append([]FlightEvent(nil), fr.buf[:fr.next]...)
	}
	out := make([]FlightEvent, 0, len(fr.buf))
	out = append(out, fr.buf[fr.next:]...)
	return append(out, fr.buf[:fr.next]...)
}

// traceEvent is the Chrome trace_event JSON shape: "i" instants for
// flight-recorder entries, "X" complete events for tracer spans, and
// "s"/"t"/"f" flow events stitching a packet journey's spans into one
// connected arc.
type traceEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"` // microseconds
	Dur   float64           `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	ID    string            `json:"id,omitempty"` // flow-event binding id
	BP    string            `json:"bp,omitempty"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// MultiRecorder aggregates per-lane flight recorders into one
// instrument — one lane per shard, each written only by its shard's
// goroutine, so recording needs no locks (the single-loop engine has
// one lane). Reading merges the lanes ordered by virtual time, as the
// seam recorder's readers do; call only with no run in flight.
type MultiRecorder struct {
	lanes lanes[FlightRecorder]

	// spanSource, when set (SetSpanSource), contributes the packet
	// tracer's span stream to WriteTrace.
	spanSource func() []Span
}

// SetSpanSource attaches a span stream (Tracer.Spans) to the recorder:
// WriteTrace renders each trace's spans as complete events in a
// "packet journeys" process, one row per trace, connected by flow
// events so a journey reads as one arc across the timeline.
func (m *MultiRecorder) SetSpanSource(fn func() []Span) { m.spanSource = fn }

// NewMultiRecorder builds an empty recorder; add lanes with Lane.
func NewMultiRecorder() *MultiRecorder { return &MultiRecorder{} }

// Lane creates (or returns) the named lane's ring with the given
// capacity (<=0 takes DefaultFlightCap; the capacity of an existing
// lane is not changed).
func (m *MultiRecorder) Lane(name string, capacity int) *FlightRecorder {
	return m.lanes.get(name, func() *FlightRecorder { return NewFlightRecorder(capacity) })
}

// Len sums held events across lanes.
func (m *MultiRecorder) Len() int {
	n := 0
	for _, fr := range m.lanes.all {
		n += fr.Len()
	}
	return n
}

// Dropped sums overwritten events across lanes.
func (m *MultiRecorder) Dropped() uint64 {
	var n uint64
	for _, fr := range m.lanes.all {
		n += fr.Dropped()
	}
	return n
}

// WriteTrace dumps all lanes as one Chrome trace_event JSON timeline
// (open it at chrome://tracing or ui.perfetto.dev): one process per
// lane (named via process_name metadata, so a sharded run renders one
// swimlane group per shard), one thread per category within it, every
// event stamped with virtual-time microseconds since the simulation
// epoch and ordered by virtual time — a parallel run's trace reads
// exactly like a sequential one's.
func (m *MultiRecorder) WriteTrace(w io.Writer) error {
	out := struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{}
	for i, name := range m.lanes.names {
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "process_name", Phase: "M", PID: i + 1,
			Args: map[string]string{"name": name},
		})
	}
	perLane := make([][]FlightEvent, len(m.lanes.all))
	for i, fr := range m.lanes.all {
		perLane[i] = fr.Events()
	}
	type laneCat struct {
		lane int
		cat  string
	}
	tids := map[laneCat]int{}
	for _, e := range mergeLanes(perLane, func(e FlightEvent) sim.Time { return e.T }) {
		key := laneCat{e.lane, e.ev.Cat}
		tid, ok := tids[key]
		if !ok {
			tid = len(tids) + 1
			tids[key] = tid
		}
		te := traceEvent{
			Name: e.ev.Name, Cat: e.ev.Cat, Phase: "i", Scope: "t",
			TS:  float64(e.ev.T.Duration().Microseconds()),
			PID: e.lane + 1, TID: tid,
		}
		if e.ev.Arg != "" {
			te.Args = map[string]string{"arg": e.ev.Arg}
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}
	if m.spanSource != nil {
		spanPID := len(m.lanes.names) + 1
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "process_name", Phase: "M", PID: spanPID,
			Args: map[string]string{"name": "packet journeys"},
		})
		spans := m.spanSource()
		tids := map[TraceID]int{}
		counts := map[TraceID]int{}
		for _, s := range spans {
			counts[s.ID]++
		}
		seen := map[TraceID]int{}
		for _, s := range spans {
			tid, ok := tids[s.ID]
			if !ok {
				tid = len(tids) + 1
				tids[s.ID] = tid
			}
			id := fmt.Sprintf("trace-%d", tid)
			args := map[string]string{"trace": s.ID.String(), "who": s.Who}
			if s.Arg != "" {
				args["arg"] = s.Arg
			}
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: s.Stage, Cat: "span", Phase: "X",
				TS:  float64(s.Start.Duration().Microseconds()),
				Dur: float64(s.Duration().Microseconds()),
				PID: spanPID, TID: tid, Args: args,
			})
			// The flow arc: start at the first span, step through the
			// middle ones, finish (binding to the enclosing slice) at
			// the last.
			seen[s.ID]++
			fe := traceEvent{
				Name: "journey", Cat: "span", Phase: "t",
				TS:  float64(s.Start.Duration().Microseconds()),
				PID: spanPID, TID: tid, ID: id,
			}
			switch seen[s.ID] {
			case 1:
				fe.Phase = "s"
			case counts[s.ID]:
				fe.Phase = "f"
				fe.BP = "e"
				fe.TS = float64(s.End.Duration().Microseconds())
			}
			out.TraceEvents = append(out.TraceEvents, fe)
		}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
