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
// first loss pinned on it (a collision on the air, a queue overflow in
// a driver), else the last rung of the ladder it reached (request
// leaves the station, crosses the air to the gateway, is forwarded,
// arrives at the server; the reply walks the same path back), reported
// as pending there. The invariant the experiments assert:
//
//	delivered + sum(undelivered fates) == pings sent
//
// so an E16-style saturation run can say exactly where every lost
// probe died instead of just reporting a delivery ratio. The journeys
// are engine-independent (seam.go), so the fate table is identical on
// the single-loop and sharded engines — the equality the shard
// equivalence suite gates.
type PingLedger struct{ rec *Recorder }

// PingLedger returns the recorder's fate view and starts buffering
// crossings.
func (r *Recorder) PingLedger() *PingLedger {
	r.keep = true
	return &PingLedger{rec: r}
}

// ladder ranks the crossings that move a ping forward and names where
// a ping that got no further is pending. Crossings off the ladder
// (ARP, KISS, MAC) don't move it.
var ladder = map[uint8]struct {
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

// fates returns one fate per ping, in journey order.
func (l *PingLedger) fates() []string {
	var out []string
	for _, tr := range l.rec.journeys() {
		if tr.ID.Proto != ip.ProtoICMP || tr.Crossings[0].Point != PtOrigin {
			continue // not a ping seen leaving its station
		}
		top := ladder[PtOrigin]
		for _, c := range tr.Crossings {
			if st, ok := ladder[c.Point]; ok && st.rank > top.rank {
				top = st
			}
		}
		if tr.Loss != "" && top.fate != "delivered" {
			out = append(out, tr.Loss)
		} else {
			out = append(out, top.fate)
		}
	}
	return out
}

// Sent reports how many pings the ledger saw leave a station.
func (l *PingLedger) Sent() int { return len(l.fates()) }

// Delivered reports how many replies made it back.
func (l *PingLedger) Delivered() int { return l.Fates()["delivered"] }

// Fates classifies every tracked ping: "delivered", a terminal loss
// reason, or "pending: ..." for pings still mid-ladder. The counts
// always sum to Sent().
func (l *PingLedger) Fates() map[string]int {
	out := make(map[string]int)
	for _, f := range l.fates() {
		out[f]++
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
