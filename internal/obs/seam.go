// The seam recorder (DESIGN.md §3e, §3i): one place every packet
// observer in this package is fed from. A world installs exactly one
// hook at each seam a datagram crosses — stack, ARP hold queue, KISS
// serial line, MAC, the air, and the queue-drop points — and each hook
// hands the seam's bytes to the Lane of the shard it runs on. The lane
// digs the AX.25 frame and the IP datagram out once, appends one typed
// crossing to its buffer, and passes the decoded event to subscribers.
// The span tracer and the ping fate ledger are views over the merged
// crossings; pcap captures are subscribers.
//
// Determinism: each shard records into its own lane, and reads merge
// the lanes stable-sorted by (virtual time, lane). The sharded engine
// runs a whole window of one shard before the next shard starts, so a
// single buffer would hold crossings in shard order; the merge puts
// them back in virtual-time order. Same-instant crossings of one
// journey always land in one lane — a causal chain within a shard runs
// in program order, and a cross-shard hop advances virtual time by at
// least the seam's lookahead — so a journey's crossing order, and
// everything derived from it (the span stream, the fate table), is
// identical on the single-loop and sharded engines.

package obs

import (
	"fmt"
	"sort"

	"packetradio/internal/ax25"
	"packetradio/internal/dama"
	"packetradio/internal/ip"
	"packetradio/internal/sim"
)

// TraceID identifies one packet journey. For ICMP echoes A is the
// pinging station and B the pinged host, with the echo id/seq — the
// request and its reply are one round-trip journey. For every other
// protocol A/B are the datagram's source/destination and ID is the IP
// header identification field: each datagram (a TCP segment, an RDM
// message, a retransmission with its fresh ID) is its own one-way
// journey.
type TraceID struct {
	Proto   uint8
	A, B    ip.Addr
	ID, Seq uint16
}

// String renders the journey identity the way waterfalls title it.
func (id TraceID) String() string {
	return fmt.Sprintf("%s %v>%v id %d seq %d", protoName(id.Proto), id.A, id.B, id.ID, id.Seq)
}

func protoName(p uint8) string {
	switch p {
	case ip.ProtoICMP:
		return "icmp"
	case ip.ProtoTCP:
		return "tcp"
	case ip.ProtoUDP:
		return "udp"
	case ip.ProtoRDM:
		return "rdm"
	}
	return fmt.Sprintf("proto%d", p)
}

// less is the total order the global span stream uses — any fixed
// order works; byte order over the struct's fields is the simplest.
func (id TraceID) less(o TraceID) bool {
	if id.Proto != o.Proto {
		return id.Proto < o.Proto
	}
	if id.A != o.A {
		return string(id.A[:]) < string(o.A[:])
	}
	if id.B != o.B {
		return string(id.B[:]) < string(o.B[:])
	}
	if id.ID != o.ID {
		return id.ID < o.ID
	}
	return id.Seq < o.Seq
}

// traceFrom extracts a journey identity from a datagram. ICMP echoes
// fold request and reply into one journey (reply reports true on the
// return leg); everything else keys one one-way journey per datagram
// on the IP identification field. Fragments beyond the first are not
// traced.
func traceFrom(pkt *ip.Packet) (id TraceID, reply, ok bool) {
	if pkt == nil || pkt.FragOff != 0 {
		return id, false, false
	}
	if pkt.Proto == ip.ProtoICMP {
		if len(pkt.Payload) < 8 {
			return id, false, false
		}
		icmpID := uint16(pkt.Payload[4])<<8 | uint16(pkt.Payload[5])
		icmpSeq := uint16(pkt.Payload[6])<<8 | uint16(pkt.Payload[7])
		switch pkt.Payload[0] {
		case 8: // echo request
			return TraceID{Proto: ip.ProtoICMP, A: pkt.Src, B: pkt.Dst, ID: icmpID, Seq: icmpSeq}, false, true
		case 0: // echo reply
			return TraceID{Proto: ip.ProtoICMP, A: pkt.Dst, B: pkt.Src, ID: icmpID, Seq: icmpSeq}, true, true
		}
		return id, false, false
	}
	return TraceID{Proto: pkt.Proto, A: pkt.Src, B: pkt.Dst, ID: pkt.ID}, false, true
}

// Crossing points, in journey order for one hop. ptReply marks the
// reply leg of an ICMP round trip (the same physical seams, walked
// back). The stage between two consecutive crossings is named by the
// arriving one — see stageName. ptLoss is not a crossing: it pins the
// reason a journey died on it, and never appears in Trace.Crossings.
const (
	PtOrigin   uint8 = 1  // source stack emitted the datagram
	PtARPHold  uint8 = 2  // driver parked it on an ARP hold queue
	PtARPFlush uint8 = 3  // ARP resolved; hold queue flushed
	PtKISSTx   uint8 = 4  // driver framed it onto the KISS serial line
	PtMACQueue uint8 = 5  // radio accepted it into the MAC queue
	PtTxStart  uint8 = 6  // transmitter keyed up with it
	PtAirRx    uint8 = 7  // addressee's radio finished receiving it
	PtKISSRx   uint8 = 8  // receiving driver pulled it off the serial line
	PtFwd      uint8 = 9  // a router's stack forwarded it
	PtArrive   uint8 = 10 // destination stack accepted it

	ptLoss  uint8 = 15 // the datagram died here; Arg is the reason
	ptReply uint8 = 16 // OR'd onto the reply leg's points
)

// point applies the reply-leg marker for ICMP return journeys.
func point(base uint8, reply bool) uint8 {
	if reply {
		return base | ptReply
	}
	return base
}

// Seam names the boundary a SeamEvent was observed at.
type Seam uint8

// The seams subscribers see: the two a capture can tap.
const (
	SeamStack Seam = iota + 1 // ipstack tap; Dir "in", "out" or "fwd"
	SeamKISS                  // host⇄TNC serial line; Dir "tx" or "rx"
)

// SeamEvent is one seam observation as subscribers see it, decoded
// once by the lane.
type SeamEvent struct {
	Seam Seam
	Who  string     // the host
	If   string     // the interface
	Dir  string     // see the Seam constants
	Raw  []byte     // the KISS record (nil at the stack); do not retain
	Pkt  *ip.Packet // the datagram, nil if none; do not modify
}

// crossing is one buffered crossing (or loss) of a journey.
type crossing struct {
	id TraceID
	c  Cross
}

// Recorder owns the per-shard lanes. Create with NewRecorder, hand
// each shard a Lane, wire the lane's hooks into that shard's seams,
// and read through the Tracer and PingLedger views between runs.
type Recorder struct {
	hostAddrs map[string]map[ip.Addr]bool
	lanes     lanes[Lane]
	subs      []func(t sim.Time, ev SeamEvent)

	// keep turns crossing buffering on: set once a Tracer or PingLedger
	// view exists. A recorder feeding only subscribers buffers nothing.
	keep bool
}

// NewRecorder builds a recorder with no lanes.
func NewRecorder() *Recorder {
	return &Recorder{hostAddrs: make(map[string]map[ip.Addr]bool)}
}

// SetHostAddrs registers the addresses a host owns, so the stack hook
// can tell origination and final arrival apart from transit.
func (r *Recorder) SetHostAddrs(host string, addrs ...ip.Addr) {
	m := r.hostAddrs[host]
	if m == nil {
		m = make(map[ip.Addr]bool)
		r.hostAddrs[host] = m
	}
	for _, a := range addrs {
		m[a] = true
	}
}

// Subscribe adds fn to every stack and KISS seam event, called as the
// crossing is recorded, with the recording shard's clock. Subscribe
// before the run.
func (r *Recorder) Subscribe(fn func(t sim.Time, ev SeamEvent)) {
	r.subs = append(r.subs, fn)
}

// Lane creates (or returns) the named lane. now must read the owning
// shard's scheduler clock.
func (r *Recorder) Lane(name string, now func() sim.Time) *Lane {
	return r.lanes.get(name, func() *Lane { return &Lane{rec: r, now: now} })
}

// journeys merges the lanes and reconstructs every journey, ordered by
// TraceID, each one's crossings in causal order on both engines.
//
// A TraceID can be reused: an echo context closes when its reply lands
// and the stack hands the ICMP id to the next Ping, so the same
// (proto, pair, id, seq) names several journeys over a long run. Every
// non-reply origination therefore starts a fresh instance; instances
// of one ID stay in chronological order. A loss pins its reason on the
// current instance of its ID (the first loss wins) and is dropped when
// there is none.
func (r *Recorder) journeys() []Trace {
	perLane := make([][]crossing, len(r.lanes.all))
	for i, ln := range r.lanes.all {
		perLane[i] = ln.buf
	}
	byID := make(map[TraceID][]*Trace)
	var order []TraceID
	for _, lc := range mergeLanes(perLane, func(c crossing) sim.Time { return c.c.T }) {
		id, c := lc.ev.id, lc.ev.c
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

// Lane is one shard's crossing buffer. Hooks derived from a lane run
// inside that shard's event loop only.
type Lane struct {
	rec *Recorder
	now func() sim.Time
	buf []crossing

	// A transmission reaches every receiver on the channel in one loop
	// as the same read-only slice; the last on-air decode is kept,
	// keyed by that slice, so it serves them all. airDst is its link
	// destination as AX.25 prints it, SSID included.
	airB   []byte
	airF   *ax25.Frame
	airPkt *ip.Packet
	airDst string
}

// add buffers one crossing of the datagram at the lane's current
// virtual time; datagrams outside any journey are ignored.
func (ln *Lane) add(pkt *ip.Packet, base uint8, who, arg string) {
	if !ln.rec.keep {
		return
	}
	id, reply, ok := traceFrom(pkt)
	if !ok {
		return
	}
	ln.buf = append(ln.buf, crossing{id: id, c: Cross{T: ln.now(), Point: point(base, reply), Who: who, Arg: arg}})
}

// publish hands a decoded event to the subscribers.
func (ln *Lane) publish(ev SeamEvent) {
	if len(ln.rec.subs) == 0 {
		return
	}
	t := ln.now()
	for _, fn := range ln.rec.subs {
		fn(t, ev)
	}
}

// decode digs the AX.25 frame and the IP datagram out of a frame as it
// appears below the KISS line: DAMA-wrapped on-air bytes, FCS-suffixed
// TNC output, or a bare frame. pkt is nil when the frame carries no
// datagram; f is nil when the bytes are not AX.25 at all.
func decode(b []byte) (f *ax25.Frame, pkt *ip.Packet) {
	if inner, wrapped := dama.Unwrap(b); wrapped {
		b = inner
	}
	if body, fcsOK := ax25.CheckFCS(b); fcsOK {
		b = body
	}
	f, err := ax25.Decode(b)
	if err != nil {
		return nil, nil
	}
	if pkt, err = ip.Unmarshal(f.Info); err != nil {
		return f, nil
	}
	return f, pkt
}

// StackTap returns an ipstack.Stack.Tap-shaped hook for the named
// host: origination, per-hop forwarding, and final arrival.
func (ln *Lane) StackTap(host string) func(dir string, pkt *ip.Packet, ifName string) {
	return func(dir string, pkt *ip.Packet, ifName string) {
		mine := ln.rec.hostAddrs[host]
		switch {
		case dir == "out" && mine[pkt.Src]:
			ln.add(pkt, PtOrigin, host, "")
		case dir == "fwd":
			ln.add(pkt, PtFwd, host, "if "+ifName)
		case dir == "in" && mine[pkt.Dst]:
			ln.add(pkt, PtArrive, host, "")
		}
		ln.publish(SeamEvent{Seam: SeamStack, Who: host, If: ifName, Dir: dir, Pkt: pkt})
	}
}

// ARPTap returns an arp.Resolver.Trace-shaped hook: hold ("a datagram
// parked awaiting resolution") and flush ("resolution arrived; the
// hold queue drains") at the named host.
func (ln *Lane) ARPTap(host string) func(event string, pkt *ip.Packet) {
	return func(event string, pkt *ip.Packet) {
		switch event {
		case "hold":
			ln.add(pkt, PtARPHold, host, "")
		case "flush":
			ln.add(pkt, PtARPFlush, host, "")
		}
	}
}

// KISSTap returns a core.PacketRadioIf.Tap-shaped hook for one radio
// port: "tx" as the driver frames a datagram onto the KISS line, "rx"
// as it pulls one off. rec is the KISS record — the command byte, then
// the bare AX.25 frame for data records (command 0).
func (ln *Lane) KISSTap(host, ifName string) func(dir string, rec []byte) {
	return func(dir string, rec []byte) {
		var pkt *ip.Packet
		if len(rec) >= 2 && rec[0] == 0 {
			if f, err := ax25.Decode(rec[1:]); err == nil {
				pkt, _ = ip.Unmarshal(f.Info)
			}
		}
		if pkt != nil {
			switch dir {
			case "tx":
				ln.add(pkt, PtKISSTx, host, "")
			case "rx":
				ln.add(pkt, PtKISSRx, host, "")
			}
		}
		ln.publish(SeamEvent{Seam: SeamKISS, Who: host, If: ifName, Dir: dir, Raw: rec, Pkt: pkt})
	}
}

// MAC records a transmitter crossing for the frame: "queue" as the
// radio accepts it, "tx-start" as it keys up with it. arg carries the
// policy detail — "deferrals=N" under CSMA, "master=CALL" under DAMA —
// so mac-wait spans name what they waited on.
func (ln *Lane) MAC(who, event string, frame []byte, arg string) {
	_, pkt := decode(frame)
	switch event {
	case "queue":
		ln.add(pkt, PtMACQueue, who, "")
	case "tx-start":
		ln.add(pkt, PtTxStart, who, arg)
	}
}

// Air records one receiver's copy of a transmission; receiverCall is
// the receiver's callsign as AX.25 prints it ("N7AKR", "KB7DZ-4"), and
// outcome is "ok" for an intact copy, else what destroyed it. Only the
// link-layer addressee's copy moves a journey: an intact one is its
// air arrival, a destroyed one its loss. Overheard copies at
// bystanders, including stations that share the callsign under another
// SSID, don't cross the journey's path.
func (ln *Lane) Air(receiverCall string, frame []byte, outcome string) {
	if len(frame) == 0 || len(frame) != len(ln.airB) || &frame[0] != &ln.airB[0] {
		ln.airB = frame
		ln.airF, ln.airPkt = decode(frame)
		ln.airDst = ""
		if ln.airF != nil {
			ln.airDst = ln.airF.LinkDst().String()
		}
	}
	f, pkt := ln.airF, ln.airPkt
	if f != nil && ln.airDst == receiverCall {
		if outcome == "ok" {
			ln.add(pkt, PtAirRx, receiverCall, "")
		} else {
			ln.add(pkt, ptLoss, receiverCall, outcome)
		}
	}
}

// DropTap returns a drop-hook-shaped function for the named host's
// queues (driver ipq, TNC host queue, MAC transmit queue): the frame,
// in whatever dress that seam uses, died for reason.
func (ln *Lane) DropTap(host string) func(reason string, frame []byte) {
	return func(reason string, frame []byte) {
		_, pkt := decode(frame)
		ln.add(pkt, ptLoss, host, reason)
	}
}

// lanes holds one L per shard, in creation order — the order merges
// break same-instant ties by.
type lanes[L any] struct {
	names []string
	all   []*L
}

// get returns the named lane, creating it with mk on first use.
func (ls *lanes[L]) get(name string, mk func() *L) *L {
	for i, n := range ls.names {
		if n == name {
			return ls.all[i]
		}
	}
	l := mk()
	ls.names = append(ls.names, name)
	ls.all = append(ls.all, l)
	return l
}

// laned tags an event with the index of the lane that recorded it.
type laned[E any] struct {
	lane int
	ev   E
}

// mergeLanes interleaves per-lane event streams into one ordered by
// virtual time, ties broken by lane index and then by each lane's own
// order: the stable sort keeps the lane-major input order among equal
// times. Call only with no run in flight.
func mergeLanes[E any](perLane [][]E, at func(E) sim.Time) []laned[E] {
	var out []laned[E]
	for i, evs := range perLane {
		for _, e := range evs {
			out = append(out, laned[E]{lane: i, ev: e})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return at(out[a].ev) < at(out[b].ev) })
	return out
}
