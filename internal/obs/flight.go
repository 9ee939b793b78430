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
// instrument: always cheap enough to leave running. A world keeps one
// ring, fed by every scheduler it runs. The recording and reading
// methods are nil-safe so call sites can hold a recorder pointer that
// is nil when recording is off.
type FlightRecorder struct {
	buf     []FlightEvent
	next    int
	full    bool
	dropped uint64

	// journeys, when set (SetJourneySource), contributes the packet
	// tracer's journeys to WriteTrace.
	journeys func() []Trace
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

// SetJourneySource attaches a journey source (Tracer.Collect's reader)
// to the recorder: WriteTrace renders each journey's spans as complete
// events in a "packet journeys" process, one row per journey, connected
// by flow events so a journey reads as one arc across the timeline.
// Journeys that reuse a TraceID get a row each.
func (fr *FlightRecorder) SetJourneySource(fn func() []Trace) { fr.journeys = fn }

// WriteTrace dumps the ring as one Chrome trace_event JSON timeline
// (open it at chrome://tracing or ui.perfetto.dev): one "world"
// process with one thread per category, every event stamped with
// virtual-time microseconds since the simulation epoch, in the order
// the events were recorded. On the sharded engine that order is shard
// by shard within each window, each event stamped with its own
// shard's clock; trace viewers place events by their stamps.
func (fr *FlightRecorder) WriteTrace(w io.Writer) error {
	out := struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{}
	out.TraceEvents = append(out.TraceEvents, traceEvent{
		Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]string{"name": "world"},
	})
	tids := map[string]int{}
	for _, e := range fr.Events() {
		tid, ok := tids[e.Cat]
		if !ok {
			tid = len(tids) + 1
			tids[e.Cat] = tid
		}
		te := traceEvent{
			Name: e.Name, Cat: e.Cat, Phase: "i", Scope: "t",
			TS:  float64(e.T.Duration().Microseconds()),
			PID: 1, TID: tid,
		}
		if e.Arg != "" {
			te.Args = map[string]string{"arg": e.Arg}
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}
	if fr.journeys != nil {
		const spanPID = 2
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "process_name", Phase: "M", PID: spanPID,
			Args: map[string]string{"name": "packet journeys"},
		})
		tid := 0
		for _, tr := range fr.journeys() {
			spans := tr.Spans()
			if len(spans) == 0 {
				continue
			}
			tid++
			id := fmt.Sprintf("trace-%d", tid)
			for i, s := range spans {
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
				// The flow arc: start at the first span, step through
				// the middle ones, finish (binding to the enclosing
				// slice) at the last.
				fe := traceEvent{
					Name: "journey", Cat: "span", Phase: "t",
					TS:  float64(s.Start.Duration().Microseconds()),
					PID: spanPID, TID: tid, ID: id,
				}
				switch i {
				case 0:
					fe.Phase = "s"
				case len(spans) - 1:
					fe.Phase = "f"
					fe.BP = "e"
					fe.TS = float64(s.End.Duration().Microseconds())
				}
				out.TraceEvents = append(out.TraceEvents, fe)
			}
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
