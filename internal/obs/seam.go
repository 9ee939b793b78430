// The seam recorder (DESIGN.md §3e, §3i): one place every packet
// observer in this package is fed from. A world installs exactly one
// hook at each seam a datagram crosses — stack, ARP hold queue, KISS
// serial line, MAC, the air, and the queue-drop points — and each hook
// hands the seam's bytes to a Lane bound to the clock of the event
// loop it runs in. The lane digs the AX.25 frame and the IP datagram
// out once, into storage it owns, adds one typed crossing to the
// datagram's journey, and passes the decoded event to subscribers.
// The recorder keeps only the journeys in flight. A journey closes at
// its final arrival, at its first pinned loss, or when its TraceID
// originates again; it then folds into the ping fate ledger's counts
// and the span tracer's breakdown, goes to the tracer's collection if
// one was asked for, and is dropped. pcap captures are subscribers.
//
// Determinism: crossings arrive in the order their events fire, each
// stamped with its own scheduler's clock. On the single loop that is
// virtual-time order. The sharded engine runs a whole window of one
// shard before the next shard starts, so crossings interleave shards
// window by window — but every journey's own crossings still arrive in
// causal order: within a shard in program order, and across shards
// because a hop lands in a later window. Journeys are kept per
// TraceID, so a journey's crossings, and everything derived from them
// (the span stream, the fate table, the breakdown), are identical on
// the single-loop and sharded engines.

package obs

import (
	"fmt"
	"strconv"

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

// final reports whether a crossing at point p ends journey id: the
// reply's arrival back at the pinging station for an ICMP echo, the
// datagram's arrival at its destination stack for anything else.
func final(id TraceID, p uint8) bool {
	if id.Proto == ip.ProtoICMP {
		return p == PtArrive|ptReply
	}
	return p == PtArrive
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
	Pkt  *ip.Packet // the datagram, nil if none; do not modify or retain
}

// Recorder keeps the world's journeys in flight. Create with
// NewRecorder, wire a Lane's hooks into each event loop's seams, and
// read through the Tracer and PingLedger views between runs.
type Recorder struct {
	subs []func(t sim.Time, ev SeamEvent)

	// open holds the journeys in flight by TraceID, spare the storage
	// of closed ones for the next journeys to reuse. Nothing is kept
	// until a Tracer or PingLedger view exists: a recorder feeding only
	// subscribers records no crossing.
	open  map[TraceID]*Trace
	spare []*Trace

	ledger *PingLedger
	tracer *Tracer
}

// NewRecorder builds an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{open: make(map[TraceID]*Trace)}
}

// Subscribe adds fn to every stack and KISS seam event, called as the
// crossing is recorded, with the recording lane's clock. Subscribe
// before the run.
func (r *Recorder) Subscribe(fn func(t sim.Time, ev SeamEvent)) {
	r.subs = append(r.subs, fn)
}

// Lane returns a new hook set recording into r. now must read the
// clock of the scheduler the hooks will run on.
func (r *Recorder) Lane(now func() sim.Time) *Lane {
	ln := &Lane{rec: r, now: now}
	ln.frame.Digi = ln.digi[:0]
	return ln
}

// cross adds one crossing, or pins one loss, to journey id, and closes
// the journey when that ends it.
//
// A TraceID can be reused: an echo context closes when its reply lands
// and the stack hands the ICMP id to the next Ping, so the same
// (proto, pair, id, seq) names several journeys over a long run. Every
// non-reply origination therefore closes the open journey of its ID
// and opens a fresh one. A loss pins its reason on the open journey of
// its ID and closes it (so the first loss wins), and is dropped when
// none is open. Any other crossing of an ID with no open journey opens
// one that never left a station: it was sent before the recording
// started, or it outlived its journey's close.
func (r *Recorder) cross(id TraceID, c Cross) {
	tr := r.open[id]
	if c.Point&^ptReply == ptLoss {
		if tr != nil {
			side := "req: "
			if c.Point&ptReply != 0 {
				side = "rep: "
			}
			tr.Loss = side + c.Arg
			r.close(tr)
		}
		return
	}
	if tr != nil && c.Point == PtOrigin {
		r.close(tr)
		tr = nil
	}
	if tr == nil {
		if n := len(r.spare); n > 0 {
			tr, r.spare = r.spare[n-1], r.spare[:n-1]
		} else {
			tr = &Trace{}
		}
		tr.ID = id
		r.open[id] = tr
	}
	tr.Crossings = append(tr.Crossings, c)
	if final(id, c.Point) {
		r.close(tr)
	}
}

// close folds a finished journey into the views and keeps its storage
// for reuse.
func (r *Recorder) close(tr *Trace) {
	delete(r.open, tr.ID)
	if r.ledger != nil {
		r.ledger.fold(tr)
	}
	if r.tracer != nil {
		r.tracer.fold(tr)
	}
	r.release(tr)
}

func (r *Recorder) release(tr *Trace) {
	tr.Crossings, tr.Loss = tr.Crossings[:0], ""
	r.spare = append(r.spare, tr)
}

// reset drops the journeys in flight and every view's aggregates.
func (r *Recorder) reset() {
	for _, tr := range r.open {
		r.release(tr)
	}
	clear(r.open)
	if r.ledger != nil {
		r.ledger.reset()
	}
	if r.tracer != nil {
		r.tracer.reset()
	}
}

// Lane is a set of seam hooks bound to one event loop's clock. Hooks
// derived from a lane run inside that loop only.
type Lane struct {
	rec *Recorder
	now func() sim.Time

	// The lane decodes into storage it owns: frame, with its
	// digipeater path in digi, and pkt hold the last decode until the
	// next one.
	frame ax25.Frame
	digi  [ax25.MaxDigis]ax25.Digi
	pkt   ip.Packet

	// A transmission reaches every receiver on the channel in one loop
	// as the same read-only slice. While the storage above holds its
	// decode, air is that slice, so one decode serves every receiver.
	air    []byte
	airF   *ax25.Frame
	airPkt *ip.Packet
}

// add records one crossing of the datagram at the lane's current
// virtual time; datagrams outside any journey are ignored.
func (ln *Lane) add(pkt *ip.Packet, base uint8, who, arg string) {
	if ln.rec.ledger == nil && ln.rec.tracer == nil {
		return
	}
	id, reply, ok := traceFrom(pkt)
	if !ok {
		return
	}
	ln.rec.cross(id, Cross{T: ln.now(), Point: point(base, reply), Who: who, Arg: arg})
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

// decodeBare digs the AX.25 frame and the IP datagram out of a bare
// frame into the lane's storage. pkt is nil when the frame carries no
// datagram; f is nil when the bytes are not AX.25 at all.
func (ln *Lane) decodeBare(b []byte) (f *ax25.Frame, pkt *ip.Packet) {
	ln.air = nil
	if ln.frame.Decode(b) != nil {
		return nil, nil
	}
	if ln.pkt.Parse(ln.frame.Info) != nil {
		return &ln.frame, nil
	}
	return &ln.frame, &ln.pkt
}

// decode is decodeBare for a frame as it appears below the KISS line:
// DAMA-wrapped on-air bytes, FCS-suffixed TNC output, or a bare frame.
func (ln *Lane) decode(b []byte) (*ax25.Frame, *ip.Packet) {
	if inner, wrapped := dama.Unwrap(b); wrapped {
		b = inner
	}
	if body, fcsOK := ax25.CheckFCS(b); fcsOK {
		b = body
	}
	return ln.decodeBare(b)
}

// StackTap returns an ipstack.Stack.Tap-shaped hook for the named
// host, which owns addrs: origination, per-hop forwarding, and final
// arrival.
func (ln *Lane) StackTap(host string, addrs ...ip.Addr) func(dir string, pkt *ip.Packet, ifName string) {
	mine := func(a ip.Addr) bool {
		for _, m := range addrs {
			if m == a {
				return true
			}
		}
		return false
	}
	return func(dir string, pkt *ip.Packet, ifName string) {
		switch {
		case dir == "out" && mine(pkt.Src):
			ln.add(pkt, PtOrigin, host, "")
		case dir == "fwd":
			ln.add(pkt, PtFwd, host, "if "+ifName)
		case dir == "in" && mine(pkt.Dst):
			ln.add(pkt, PtArrive, host, "")
		}
		ln.publish(SeamEvent{Seam: SeamStack, Who: host, If: ifName, Dir: dir, Pkt: pkt})
	}
}

// ARPTap returns an arp.Resolver.Trace-shaped hook at the named host:
// hold ("a datagram parked awaiting resolution") and flush
// ("resolution arrived; the hold queue drains") are crossings, and the
// hold queue's two drops, an older hold evicted by a newer one
// ("overflow") and a hold given up with its unanswered requests
// ("unresolved"), are losses.
func (ln *Lane) ARPTap(host string) func(event string, pkt *ip.Packet) {
	return func(event string, pkt *ip.Packet) {
		switch event {
		case "hold":
			ln.add(pkt, PtARPHold, host, "")
		case "flush":
			ln.add(pkt, PtARPFlush, host, "")
		case "overflow":
			ln.add(pkt, ptLoss, host, "arp hold overflow")
		case "unresolved":
			ln.add(pkt, ptLoss, host, "arp unresolved")
		}
	}
}

// KISSTap returns a core.PacketRadioIf.Tap-shaped hook for one radio
// port with callsign call: "tx" as the driver frames a datagram onto
// the KISS line, "rx" as it pulls one off. rec is the KISS record —
// the command byte, then the bare AX.25 frame for data records
// (command 0). As at the air seam, only a frame whose link destination
// is call moves a journey on "rx": a promiscuous TNC hands its host
// every frame it overhears, and those copies don't cross the
// journey's path. Subscribers still see every record.
func (ln *Lane) KISSTap(host, ifName string, call ax25.Addr) func(dir string, rec []byte) {
	return func(dir string, rec []byte) {
		var pkt *ip.Packet
		addressed := false
		if len(rec) >= 2 && rec[0] == 0 {
			var f *ax25.Frame
			if f, pkt = ln.decodeBare(rec[1:]); f != nil {
				addressed = f.LinkDst() == call
			}
		}
		if pkt != nil {
			switch {
			case dir == "tx":
				ln.add(pkt, PtKISSTx, host, "")
			case dir == "rx" && addressed:
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
	_, pkt := ln.decode(frame)
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
	if len(frame) == 0 || len(frame) != len(ln.air) || &frame[0] != &ln.air[0] {
		ln.airF, ln.airPkt = ln.decode(frame)
		ln.air = frame
	}
	if f := ln.airF; f != nil && printsAs(f.LinkDst(), receiverCall) {
		if outcome == "ok" {
			ln.add(ln.airPkt, PtAirRx, receiverCall, "")
		} else {
			ln.add(ln.airPkt, ptLoss, receiverCall, outcome)
		}
	}
}

// printsAs reports whether a prints as s (a.String() == s) without
// building the string.
func printsAs(a ax25.Addr, s string) bool {
	n := len(a.Call)
	for n > 0 && a.Call[n-1] == ' ' {
		n--
	}
	if len(s) < n || s[:n] != string(a.Call[:n]) {
		return false
	}
	rest := s[n:]
	if a.SSID == 0 {
		return rest == ""
	}
	var buf [3]byte
	ssid := strconv.AppendUint(buf[:0], uint64(a.SSID), 10)
	return len(rest) == 1+len(ssid) && rest[0] == '-' && rest[1:] == string(ssid)
}

// StackDropTap returns an ipstack.Stack.OnDrop-shaped hook for the
// named host: the datagram died in its IP layer for reason.
func (ln *Lane) StackDropTap(host string) func(reason string, pkt *ip.Packet) {
	return func(reason string, pkt *ip.Packet) { ln.add(pkt, ptLoss, host, reason) }
}

// DropTap returns a drop-hook-shaped function for the named host's
// queues (driver ipq, TNC host queue, MAC transmit queue): the frame,
// in whatever dress that seam uses, died for reason.
func (ln *Lane) DropTap(host string) func(reason string, frame []byte) {
	return func(reason string, frame []byte) {
		_, pkt := ln.decode(frame)
		ln.add(pkt, ptLoss, host, reason)
	}
}
