package obs

import (
	"sort"
	"time"

	"packetradio/internal/ip"
)

// The oracle for FuzzJourneyFold: the recorder's read path from before
// journeys folded as they finished. The recorder buffered every
// crossing and loss, and every read rebuilt every journey from the
// buffer, so each view was a pure function of the whole stream.

// crossing is one buffered crossing (or loss) of a journey.
type crossing struct {
	id TraceID
	c  Cross
}

// oracleJourneys reconstructs every journey, ordered by TraceID, each
// ID's instances in chronological order. Every non-reply origination
// starts a fresh instance of its ID. A loss pins its reason on the
// current instance of its ID (the first loss wins) and is dropped when
// there is none.
func oracleJourneys(buf []crossing) []Trace {
	byID := make(map[TraceID][]*Trace)
	var order []TraceID
	for _, x := range buf {
		id, c := x.id, x.c
		insts := byID[id]
		if c.Point&^ptReply == ptLoss {
			if n := len(insts); n > 0 && insts[n-1].Loss == "" {
				side := "req: "
				if c.Point&ptReply != 0 {
					side = "rep: "
				}
				insts[n-1].Loss = side + c.Arg
			}
			continue
		}
		if len(insts) == 0 {
			order = append(order, id)
		}
		if len(insts) == 0 || c.Point == PtOrigin {
			insts = append(insts, &Trace{ID: id})
			byID[id] = insts
		}
		tr := insts[len(insts)-1]
		tr.Crossings = append(tr.Crossings, c)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].less(order[j]) })
	var out []Trace
	for _, id := range order {
		for _, tr := range byID[id] {
			out = append(out, *tr)
		}
	}
	return out
}

// oracleLadder is the ledger's rung table as the rebuild kept it.
var oracleLadder = map[uint8]struct {
	rank int
	fate string
}{
	PtOrigin:           {1, "pending: req in station queue"},
	PtAirRx:            {2, "pending: req at gateway"},
	PtFwd:              {3, "pending: req to server"},
	PtArrive:           {4, "pending: req at server"},
	PtOrigin | ptReply: {5, "pending: rep to gateway"},
	PtFwd | ptReply:    {6, "pending: rep in gateway queue"},
	PtAirRx | ptReply:  {7, "pending: rep at station"},
	PtArrive | ptReply: {8, "delivered"},
}

// oracleFates is the ping ledger's fate table over rebuilt journeys:
// delivered if the reply arrived, else the first loss, else the last
// rung reached; journeys not seen leaving a station are not pings.
func oracleFates(trs []Trace) map[string]int {
	out := make(map[string]int)
	for _, tr := range trs {
		if tr.ID.Proto != ip.ProtoICMP || tr.Crossings[0].Point != PtOrigin {
			continue
		}
		top := oracleLadder[PtOrigin]
		for _, c := range tr.Crossings {
			if st, ok := oracleLadder[c.Point]; ok && st.rank > top.rank {
				top = st
			}
		}
		if tr.Loss != "" && top.fate != "delivered" {
			out[tr.Loss]++
		} else {
			out[top.fate]++
		}
	}
	return out
}

// oracleBreakdown is the latency attribution over rebuilt journeys,
// keyed by stage name: the complete traces' spans and per-stage share
// samples, everything else counted incomplete.
type oracleBreakdown struct {
	traces, incomplete int
	total              time.Duration
	totals             map[string]time.Duration
	durs               map[string][]time.Duration
	shares             map[string][]float64
}

func newOracleBreakdown(trs []Trace) *oracleBreakdown {
	b := &oracleBreakdown{
		totals: make(map[string]time.Duration),
		durs:   make(map[string][]time.Duration),
		shares: make(map[string][]float64),
	}
	for _, tr := range trs {
		if !tr.Complete() {
			b.incomplete++
			continue
		}
		elapsed := tr.Elapsed()
		b.traces++
		b.total += elapsed
		per := make(map[string]time.Duration)
		for _, s := range tr.Spans() {
			b.totals[s.Stage] += s.Duration()
			b.durs[s.Stage] = append(b.durs[s.Stage], s.Duration())
			per[s.Stage] += s.Duration()
		}
		for _, stage := range SpanStages() {
			share := 0.0
			if elapsed > 0 {
				share = float64(per[stage]) / float64(elapsed)
			}
			b.shares[stage] = append(b.shares[stage], share)
		}
	}
	return b
}
