package obs

import (
	"fmt"
	"io"
	"sort"

	"packetradio/internal/ip"
)

// PingLedger accounts for every echo request a world sends. It is the
// fate view over the seam recorder's journeys: each ping is one ICMP
// journey that left its station, and its fate is where that journey
// ended — "delivered" once the reply reached the station, else the
// first loss pinned on it, which ends the journey (a collision on the
// air, a queue overflow in a driver, an ARP hold dropped), else the
// last rung of the ladder it reached (request leaves the station,
// crosses the air to the gateway, is forwarded, arrives at the server;
// the reply walks the same path back), reported as pending there. A
// ping's fate is counted as its journey closes; the pings still in
// flight are classified when the ledger is read. The invariant the
// experiments assert:
//
//	delivered + sum(undelivered fates) == pings sent
//
// so an E16-style saturation run can say exactly where every lost
// probe died instead of just reporting a delivery ratio. The journeys
// are engine-independent (seam.go), so the fate table is identical on
// the single-loop and sharded engines — the equality the shard
// equivalence suite gates.
type PingLedger struct {
	rec   *Recorder
	fates map[string]int // the closed pings' fates
}

// PingLedger returns the recorder's fate view and starts recording
// journeys.
func (r *Recorder) PingLedger() *PingLedger {
	if r.ledger == nil {
		r.ledger = &PingLedger{rec: r, fates: make(map[string]int)}
	}
	return r.ledger
}

// rung is one step of the ladder: its rank, and the fate of a ping
// that got no further.
type rung struct {
	rank int
	fate string
}

// ladder ranks the crossings that move a ping forward, indexed by
// crossing point, and names where a ping that got no further is
// pending. Crossings off the ladder (ARP, KISS, MAC) have rank 0 and
// don't move it.
var ladder = [2 * ptReply]rung{
	PtOrigin:           {1, "pending: req in station queue"},
	PtAirRx:            {2, "pending: req at gateway"},
	PtFwd:              {3, "pending: req to server"},
	PtArrive:           {4, "pending: req at server"},
	PtOrigin | ptReply: {5, "pending: rep to gateway"},
	PtFwd | ptReply:    {6, "pending: rep in gateway queue"},
	PtAirRx | ptReply:  {7, "pending: rep at station"},
	PtArrive | ptReply: {8, "delivered"},
}

// fate reports where a journey ended — the loss that closed it, else
// the last rung it reached — or "" when the journey is not a ping
// seen leaving its station.
func fate(tr *Trace) string {
	if tr.ID.Proto != ip.ProtoICMP || tr.Crossings[0].Point != PtOrigin {
		return ""
	}
	if tr.Loss != "" {
		return tr.Loss
	}
	top := ladder[PtOrigin]
	for _, c := range tr.Crossings {
		if st := ladder[c.Point]; st.rank > top.rank {
			top = st
		}
	}
	return top.fate
}

// fold counts a closed journey's fate.
func (l *PingLedger) fold(tr *Trace) {
	if f := fate(tr); f != "" {
		l.fates[f]++
	}
}

func (l *PingLedger) reset() { clear(l.fates) }

// Sent reports how many pings the ledger saw leave a station.
func (l *PingLedger) Sent() int {
	n := 0
	for _, c := range l.Fates() {
		n += c
	}
	return n
}

// Delivered reports how many replies made it back.
func (l *PingLedger) Delivered() int { return l.fates["delivered"] }

// Fates classifies every tracked ping: "delivered", a terminal loss
// reason, or "pending: ..." for pings still mid-ladder. The counts
// always sum to Sent().
func (l *PingLedger) Fates() map[string]int {
	out := make(map[string]int, len(l.fates))
	for f, n := range l.fates {
		out[f] = n
	}
	for _, tr := range l.rec.open {
		if f := fate(tr); f != "" {
			out[f]++
		}
	}
	return out
}

// WriteFates prints the fate table, most common first.
func (l *PingLedger) WriteFates(w io.Writer) {
	fates := l.Fates()
	names := make([]string, 0, len(fates))
	for n := range fates {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if fates[names[i]] != fates[names[j]] {
			return fates[names[i]] > fates[names[j]]
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		fmt.Fprintf(w, "%6d  %s\n", fates[n], n)
	}
}
