// Package ipstack is the miniature 4.3BSD/Ultrix IP engine the paper's
// driver hands packets to ("the driver then adds the encapsulated IP
// packet to the queue of incoming IP packets so that it can be dealt
// with by the existing Ultrix software"): input validation, local
// delivery with reassembly, transport demultiplexing, ICMP, and — when
// Forwarding is enabled, as on the paper's MicroVAX gateway —
// forwarding with TTL handling, fragmentation to the outgoing MTU,
// redirects, and a pluggable forwarding filter used by the §4.3 access
// control table.
package ipstack

import (
	"errors"
	"fmt"
	"time"

	"packetradio/internal/icmp"
	"packetradio/internal/ip"
	"packetradio/internal/netif"
	"packetradio/internal/route"
	"packetradio/internal/sim"
)

// Handler processes a transport-layer segment: the full datagram is
// passed so the transport can see addresses for its pseudo-header.
//
// Every *ip.Packet and *icmp.Message the stack passes to a Handler,
// Filter, ICMPHook, Tap or OnDrop, or to an interface's Output, is the
// stack's own scratch and is valid only for that call. So are a
// received datagram's Payload bytes, which lie in the driver's
// IP-queue buffer or the Ethernet frame, both reused once Input
// returns: a handler that keeps bytes copies them, as the raw socket
// does. An outgoing datagram's may not be kept either.
type Handler func(pkt *ip.Packet, ifName string)

// FilterVerdict is a forwarding filter's decision.
type FilterVerdict int

const (
	VerdictAccept FilterVerdict = iota // forward the packet
	VerdictDrop                        // drop silently
	VerdictReject                      // drop and return ICMP admin-prohibited
)

// Filter inspects a packet being forwarded from inIf to outIf.
type Filter func(pkt *ip.Packet, inIf, outIf string) FilterVerdict

// Stats counts stack-level events (a slice of ipstat).
type Stats struct {
	Received     uint64
	BadPackets   uint64
	Delivered    uint64
	Forwarded    uint64
	TTLDrops     uint64
	NoRoute      uint64
	FilterDrops  uint64
	OutRequests  uint64
	FragsOut     uint64
	Reassembled  uint64
	RedirectsOut uint64
	RedirectsIn  uint64
	NoProto      uint64
	EchoReplies  uint64
	ICMPIn       uint64
	ICMPOut      uint64
	FragDrops    uint64 // datagrams unfragmentable for the output MTU
}

type ifEntry struct {
	ifc   netif.Interface
	name  string
	addr  ip.Addr
	mask  ip.Mask
	bcast ip.Addr // the connected net's directed broadcast
}

// scratch is the storage one call borrows for a datagram in flight:
// the packet it is parsed into or built in, the ICMP message parsed
// from it, and the buffer an ICMP message is marshalled into.
type scratch struct {
	pkt ip.Packet
	msg icmp.Message
	buf []byte
}

// Stack is one host's (or gateway's) IP layer.
type Stack struct {
	Hostname string
	Sched    *sim.Scheduler

	// Forwarding enables gatewaying between interfaces (ipforwarding).
	Forwarding bool

	// Routes is the kernel routing table.
	Routes *route.Table

	// Filter, when non-nil, screens every forwarded packet (the §4.3
	// access-control hook).
	Filter Filter

	// ICMPHook, when non-nil, sees every locally delivered ICMP
	// message before standard processing; returning true consumes it.
	// The gateway authorization messages are handled here.
	ICMPHook func(pkt *ip.Packet, m *icmp.Message, ifName string) bool

	// AcceptRedirects lets ICMP redirects install host routes — the
	// mechanism §4.2 suggests for steering traffic to regional
	// gateways ("It is conceivable that something like this could be
	// handled using [ICMP]"). Hosts of the era accepted them; off by
	// default here so tests opt in explicitly.
	AcceptRedirects bool

	// Tap, when non-nil, observes every packet at input, output and
	// forward time ("in", "out", "fwd").
	Tap func(dir string, pkt *ip.Packet, ifName string)

	// OnDrop, when non-nil, observes every datagram the stack discards
	// on its way through, with the reason: "ttl exceeded", "no route",
	// "filter drop", "filter reject" or "cannot fragment".
	OnDrop func(reason string, pkt *ip.Packet)

	Stats Stats

	ifs         []*ifEntry // attachment order
	protos      map[uint8]Handler
	protoOwners map[uint8]any
	reass       *ip.Reassembler
	reassTick   *sim.Event
	reassFn     func() // expireReassembly, built on first use
	nextID      uint16

	// free holds the scratch not lent to a call. Calls nest (a
	// forwarded datagram can raise an ICMP error, which sends another
	// datagram), so each borrows its own.
	free []*scratch

	pings     map[uint16]*pingCtx
	sparePing *pingCtx // a one-shot context whose reply came, for reuse
	echoBody  []byte   // the body of the echo request being sent
}

// New builds a stack.
func New(sched *sim.Scheduler, hostname string) *Stack {
	return &Stack{
		Hostname:    hostname,
		Sched:       sched,
		Routes:      route.New(),
		protos:      make(map[uint8]Handler),
		protoOwners: make(map[uint8]any),
		reass:       ip.NewReassembler(),
		pings:       make(map[uint16]*pingCtx),
		nextID:      1,
	}
}

// AddInterface attaches a configured interface and installs the
// connected-network route.
func (s *Stack) AddInterface(ifc netif.Interface, addr ip.Addr, mask ip.Mask) {
	if mask == (ip.Mask{}) {
		mask = ip.ClassMask(addr)
	}
	e := ifEntry{ifc: ifc, name: ifc.Name(), addr: addr, mask: mask, bcast: addr}
	for i := range e.bcast {
		e.bcast[i] |= ^mask[i]
	}
	if old := s.iface(e.name); old != nil {
		*old = e // re-attaching a name replaces its entry
	} else {
		s.ifs = append(s.ifs, &e)
	}
	s.Routes.AddNet(addr, mask, ip.Addr{}, e.name)
}

// iface returns the named interface's entry, or nil. Hosts have one to
// three interfaces, so a scan beats a map.
func (s *Stack) iface(name string) *ifEntry {
	for _, e := range s.ifs {
		if e.name == name {
			return e
		}
	}
	return nil
}

// Interface returns a registered interface by name.
func (s *Stack) Interface(name string) (netif.Interface, bool) {
	e := s.iface(name)
	if e == nil {
		return nil, false
	}
	return e.ifc, true
}

// IfAddr reports the address of the named interface.
func (s *Stack) IfAddr(name string) (ip.Addr, ip.Mask, bool) {
	e := s.iface(name)
	if e == nil {
		return ip.Addr{}, ip.Mask{}, false
	}
	return e.addr, e.mask, true
}

// IfNames lists the registered interfaces in attachment order —
// daemons that send per-interface traffic (RSPF hellos) iterate this
// so their behaviour is deterministic.
func (s *Stack) IfNames() []string {
	names := make([]string, len(s.ifs))
	for i, e := range s.ifs {
		names[i] = e.name
	}
	return names
}

// Addr returns the stack's primary address (first interface).
func (s *Stack) Addr() ip.Addr {
	if len(s.ifs) == 0 {
		return ip.Addr{}
	}
	return s.ifs[0].addr
}

// RegisterProto installs the transport handler for an IP protocol.
func (s *Stack) RegisterProto(proto uint8, h Handler) { s.RegisterProtoOwned(proto, h, nil) }

// RegisterProtoOwned installs a transport handler tagged with an
// owner token, so UnregisterProtoOwned can release the slot only if
// it still belongs to that owner (raw sockets use themselves as the
// token; a later transport claiming the protocol must not be torn
// down by a stale close).
func (s *Stack) RegisterProtoOwned(proto uint8, h Handler, owner any) {
	s.protos[proto] = h
	s.protoOwners[proto] = owner
}

// HasProto reports whether a transport handler is registered for the
// protocol — the socket layer's duplicate-raw-bind check.
func (s *Stack) HasProto(proto uint8) bool { _, ok := s.protos[proto]; return ok }

// UnregisterProtoOwned removes the protocol's handler if (and only
// if) owner still holds the slot.
func (s *Stack) UnregisterProtoOwned(proto uint8, owner any) {
	if s.protoOwners[proto] != owner {
		return
	}
	delete(s.protos, proto)
	delete(s.protoOwners, proto)
}

// isLocal reports whether dst is one of our addresses or a broadcast
// we should accept.
func (s *Stack) isLocal(dst ip.Addr) bool {
	if dst.IsBroadcast() || dst == ip.Loopback {
		return true
	}
	for _, e := range s.ifs {
		if dst == e.addr || dst == e.bcast {
			return true
		}
	}
	return false
}

// borrow lends the caller a scratch until it calls giveBack.
func (s *Stack) borrow() *scratch {
	n := len(s.free)
	if n == 0 {
		return new(scratch)
	}
	sc := s.free[n-1]
	s.free = s.free[:n-1]
	return sc
}

// giveBack returns a borrowed scratch, dropping its references to
// bytes it does not own.
func (s *Stack) giveBack(sc *scratch) {
	sc.pkt.Options, sc.pkt.Payload, sc.msg.Body = nil, nil, nil
	s.free = append(s.free, sc)
}

// Input is the driver entry point: a validated-length raw datagram
// received on ifName. Equivalent to ipintr picking packets off the IP
// input queue.
func (s *Stack) Input(buf []byte, ifName string) {
	s.Stats.Received++
	sc := s.borrow()
	defer s.giveBack(sc)
	pkt := &sc.pkt
	if err := pkt.Parse(buf); err != nil {
		s.Stats.BadPackets++
		return
	}
	if s.Tap != nil {
		s.Tap("in", pkt, ifName)
	}
	if s.isLocal(pkt.Dst) {
		s.deliver(pkt, ifName)
		return
	}
	if !s.Forwarding {
		// Hosts silently discard transit traffic.
		return
	}
	s.forward(pkt, ifName)
}

func (s *Stack) deliver(pkt *ip.Packet, ifName string) {
	// Reassemble fragments first.
	if pkt.MF || pkt.FragOff > 0 {
		s.scheduleReassemblyExpiry()
		pkt = s.reass.Add(pkt.Clone(), s.Sched.Now().Duration())
		if pkt == nil {
			return
		}
		s.Stats.Reassembled++
	}
	s.Stats.Delivered++
	if pkt.Proto == ip.ProtoICMP {
		s.icmpInput(pkt, ifName)
		return
	}
	if h, ok := s.protos[pkt.Proto]; ok {
		h(pkt, ifName)
		return
	}
	s.Stats.NoProto++
	s.sendICMPError(icmp.TypeDestUnreachable, icmp.CodeProtoUnreachable, pkt)
}

func (s *Stack) scheduleReassemblyExpiry() {
	if s.reassTick != nil && !s.reassTick.Cancelled() {
		return
	}
	if s.reassFn == nil {
		s.reassFn = s.expireReassembly
	}
	s.reassTick = s.Sched.After(ip.ReassemblyTimeout, s.reassFn)
}

func (s *Stack) expireReassembly() {
	// Clear the handle unconditionally: the scheduler recycles fired
	// events, so holding the stale pointer would alias whatever timer
	// reuses it and block rescheduling forever.
	s.reassTick = nil
	s.reass.Expire(s.Sched.Now().Duration())
	if s.reass.PendingCount() > 0 {
		s.scheduleReassemblyExpiry()
	}
}

// drop reports a datagram the stack discards to OnDrop.
func (s *Stack) drop(reason string, pkt *ip.Packet) {
	if s.OnDrop != nil {
		s.OnDrop(reason, pkt)
	}
}

func (s *Stack) forward(pkt *ip.Packet, inIf string) {
	if pkt.TTL <= 1 {
		s.Stats.TTLDrops++
		s.drop("ttl exceeded", pkt)
		s.sendICMPError(icmp.TypeTimeExceeded, icmp.CodeTTLExceeded, pkt)
		return
	}
	ent, err := s.Routes.Lookup(pkt.Dst)
	if err != nil {
		s.Stats.NoRoute++
		s.drop("no route", pkt)
		s.sendICMPError(icmp.TypeDestUnreachable, icmp.CodeNetUnreachable, pkt)
		return
	}
	if s.Filter != nil {
		switch s.Filter(pkt, inIf, ent.IfName) {
		case VerdictDrop:
			s.Stats.FilterDrops++
			s.drop("filter drop", pkt)
			return
		case VerdictReject:
			s.Stats.FilterDrops++
			s.drop("filter reject", pkt)
			s.sendICMPError(icmp.TypeDestUnreachable, icmp.CodeAdminProhibited, pkt)
			return
		}
	}
	// 4.3BSD ip_forward sends a redirect when the packet leaves by the
	// interface it arrived on and the source is on that network — the
	// mechanism §4.2 suggests could steer regional gateway selection.
	if ent.IfName == inIf {
		if e := s.iface(inIf); e != nil && ip.SameNet(pkt.Src, e.addr, e.mask) && !ent.Gateway.IsZero() {
			s.Stats.RedirectsOut++
			m := icmp.NewError(icmp.TypeRedirect, 1, pkt) // host redirect
			m.Gateway = ent.Gateway
			s.sendICMP(pkt.Src, m)
		}
	}
	// pkt is Input's scratch, so like ip_forward the TTL is decremented
	// in place, after the redirect has quoted the header as received;
	// Payload still aliases the received bytes.
	pkt.TTL--
	s.transmit(pkt, ent, "fwd", inIf)
	s.Stats.Forwarded++
}

// transmit routes are resolved; fragment and hand to the driver.
func (s *Stack) transmit(pkt *ip.Packet, ent *route.Entry, dir, ifName string) {
	e := s.iface(ent.IfName)
	if e == nil {
		s.Stats.NoRoute++
		s.drop("no route", pkt)
		return
	}
	nextHop := pkt.Dst
	if ent.Flags&route.FlagGateway != 0 {
		nextHop = ent.Gateway
	}
	mtu := e.ifc.MTU()
	if pkt.Len() <= mtu {
		s.output(e, pkt, nextHop, dir)
		return
	}
	frags, err := ip.Fragment(pkt, mtu)
	if err != nil {
		s.Stats.FragDrops++
		s.drop("cannot fragment", pkt)
		if errors.Is(err, ip.ErrFragmentDF) {
			s.sendICMPError(icmp.TypeDestUnreachable, icmp.CodeFragNeeded, pkt)
		}
		return
	}
	s.Stats.FragsOut += uint64(len(frags))
	for _, f := range frags {
		s.output(e, f, nextHop, dir)
	}
}

// output hands one datagram that fits the interface MTU to its driver.
func (s *Stack) output(e *ifEntry, pkt *ip.Packet, nextHop ip.Addr, dir string) {
	if s.Tap != nil {
		s.Tap(dir, pkt, e.name)
	}
	if err := e.ifc.Output(pkt, nextHop); err != nil {
		e.ifc.Stats().Oerrors++
	}
}

// Send originates a datagram from this host. A zero src selects the
// outgoing interface's address. Local destinations loop back without
// touching a driver.
func (s *Stack) Send(proto uint8, src, dst ip.Addr, payload []byte, ttl uint8, tos uint8) error {
	s.Stats.OutRequests++
	if ttl == 0 {
		ttl = ip.DefaultTTL
	}
	sc := s.borrow()
	defer s.giveBack(sc)
	pkt := &sc.pkt
	*pkt = ip.Packet{
		Header: ip.Header{
			TOS: tos, ID: s.allocID(), TTL: ttl, Proto: proto, Src: src, Dst: dst,
		},
		Payload: payload,
	}
	if dst.IsBroadcast() {
		// Limited broadcast goes out every interface, never forwarded.
		for _, e := range s.ifs {
			pkt.Src = src
			if src.IsZero() {
				pkt.Src = e.addr
			}
			s.output(e, pkt, dst, "out")
		}
		return nil
	}
	if s.isLocal(dst) {
		if pkt.Src.IsZero() {
			pkt.Src = s.Addr()
		}
		// Loop back through the input path asynchronously, as if it
		// had traversed the software loopback interface.
		buf, err := pkt.Marshal()
		if err != nil {
			return err
		}
		s.Sched.At(s.Sched.Now(), func() { s.Input(buf, "lo0") })
		return nil
	}
	ent, err := s.Routes.Lookup(dst)
	if err != nil {
		return err
	}
	if pkt.Src.IsZero() {
		if e := s.iface(ent.IfName); e != nil {
			pkt.Src = e.addr
		}
	}
	s.transmit(pkt, ent, "out", "")
	return nil
}

// SendVia is the raw-protocol hook: it originates a datagram out the
// named interface without consulting the routing table. dst must be
// on-link (or the limited broadcast) because it is handed to the
// driver as the next hop directly. Routing daemons use this to emit
// per-interface hellos and link-state floods before any routes exist —
// the chicken-and-egg a routed protocol cannot solve through its own
// routing table. The source address is the interface's own.
func (s *Stack) SendVia(ifName string, proto uint8, dst ip.Addr, payload []byte, ttl uint8) error {
	e := s.iface(ifName)
	if e == nil {
		return fmt.Errorf("ipstack: SendVia on unknown interface %q", ifName)
	}
	s.Stats.OutRequests++
	if ttl == 0 {
		ttl = 1 // link-local by default, never forwarded off-net
	}
	sc := s.borrow()
	defer s.giveBack(sc)
	pkt := &sc.pkt
	*pkt = ip.Packet{
		Header: ip.Header{
			ID: s.allocID(), TTL: ttl, Proto: proto, Src: e.addr, Dst: dst,
		},
		Payload: payload,
	}
	// A synthetic on-link route entry reuses the shared fragmentation
	// and tap path; zero Gateway makes the next hop the destination.
	s.transmit(pkt, &route.Entry{IfName: ifName, Flags: route.FlagUp}, "out", "")
	return nil
}

func (s *Stack) allocID() uint16 {
	id := s.nextID
	s.nextID++
	if s.nextID == 0 {
		s.nextID = 1
	}
	return id
}

// --- ICMP -------------------------------------------------------------

func (s *Stack) icmpInput(pkt *ip.Packet, ifName string) {
	s.Stats.ICMPIn++
	sc := s.borrow()
	defer s.giveBack(sc)
	m := &sc.msg
	if err := m.Parse(pkt.Payload); err != nil {
		s.Stats.BadPackets++
		return
	}
	if s.ICMPHook != nil && s.ICMPHook(pkt, m, ifName) {
		return
	}
	switch m.Type {
	case icmp.TypeEcho:
		s.Stats.EchoReplies++
		s.sendICMP(pkt.Src, icmp.NewEchoReply(m))
	case icmp.TypeEchoReply:
		s.pingReply(pkt, m)
	case icmp.TypeRedirect:
		if !s.AcceptRedirects || m.Gateway.IsZero() {
			return
		}
		q, ok := icmp.QuotedHeader(m)
		if !ok {
			return
		}
		// Only honor redirects from the gateway we actually used, for
		// a destination we route through it (4.3BSD's sanity checks).
		ent, err := s.Routes.Lookup(q.Dst)
		if err != nil || ent.Gateway != pkt.Src {
			return
		}
		s.Routes.AddHost(q.Dst, m.Gateway, ent.IfName)
		s.Stats.RedirectsIn++
	}
}

// RaiseError lets transports report errors about a received datagram
// (e.g. UDP port unreachable), with the standard suppression rules.
func (s *Stack) RaiseError(typ, code uint8, about *ip.Packet) {
	s.sendICMPError(typ, code, about)
}

// sendICMP originates an ICMP message to dst, marshalled into a
// borrowed buffer.
func (s *Stack) sendICMP(dst ip.Addr, m *icmp.Message) {
	s.Stats.ICMPOut++
	sc := s.borrow()
	defer s.giveBack(sc)
	sc.buf = m.MarshalTo(sc.buf[:0])
	// Unroutable ICMP is silently dropped.
	_ = s.Send(ip.ProtoICMP, ip.Addr{}, dst, sc.buf, 0, 0)
}

// sendICMPError raises an error about a received datagram, applying
// the RFC 1122 suppression rules.
func (s *Stack) sendICMPError(typ, code uint8, about *ip.Packet) {
	if about.FragOff != 0 {
		return // only the first fragment
	}
	if about.Dst.IsBroadcast() || about.Src.IsZero() || about.Src.IsBroadcast() {
		return
	}
	if about.Proto == ip.ProtoICMP {
		var m icmp.Message
		if m.Parse(about.Payload) == nil {
			switch m.Type {
			case icmp.TypeEcho, icmp.TypeEchoReply:
				// Errors about echo are fine.
			default:
				return // never error about an ICMP error
			}
		}
	}
	s.sendICMP(about.Src, icmp.NewError(typ, code, about))
}

// --- Ping helper --------------------------------------------------------

type pingCtx struct {
	sent     map[uint16]sim.Time
	callback func(seq uint16, rtt time.Duration, from ip.Addr)
	open     bool // PingOpen context: survives replies, closed explicitly
}

// Ping sends one echo request to dst with the given payload size; the
// callback fires when (if) the matching reply arrives. Returns the
// id/seq used. The echo context is one-shot: it is released when the
// reply arrives, so long-running simulations (the scale worlds ping
// millions of times) do not exhaust the 16-bit ID space. A reply that
// never comes leaks the id; use PingOpen/ClosePing for long-lived
// probing.
func (s *Stack) Ping(dst ip.Addr, size int, cb func(seq uint16, rtt time.Duration, from ip.Addr)) (id, seq uint16) {
	return s.ping(dst, size, cb, false)
}

// PingOpen is Ping with a persistent echo context: the id stays
// registered — surviving replies and losses — so the caller can keep
// issuing PingSeq follow-ups on it. Release it with ClosePing.
func (s *Stack) PingOpen(dst ip.Addr, size int, cb func(seq uint16, rtt time.Duration, from ip.Addr)) (id, seq uint16) {
	return s.ping(dst, size, cb, true)
}

func (s *Stack) ping(dst ip.Addr, size int, cb func(seq uint16, rtt time.Duration, from ip.Addr), open bool) (id, seq uint16) {
	id = uint16(len(s.pings) + 1)
	for tries := 0; s.pings[id] != nil; tries++ {
		if tries > 1<<16 {
			panic("ipstack: ping id space exhausted (65536 echo contexts outstanding)")
		}
		id++
	}
	ctx := s.sparePing
	if ctx == nil {
		ctx = &pingCtx{sent: map[uint16]sim.Time{}}
	}
	s.sparePing = nil
	ctx.callback, ctx.open = cb, open
	s.pings[id] = ctx
	ctx.sent[0] = s.Sched.Now()
	body := s.echo(size)
	for i := range body {
		body[i] = byte(i)
	}
	s.sendICMP(dst, icmp.NewEcho(id, 0, body))
	return id, 0
}

// PingSeq sends a follow-up echo, with a zero body, on an existing
// (PingOpen) id.
func (s *Stack) PingSeq(dst ip.Addr, id, seq uint16, size int) {
	ctx := s.pings[id]
	if ctx == nil {
		return
	}
	ctx.sent[seq] = s.Sched.Now()
	body := s.echo(size)
	clear(body)
	s.sendICMP(dst, icmp.NewEcho(id, seq, body))
}

// echo returns size bytes of the stack's echo body buffer. sendICMP
// copies the body out, so the next echo can reuse it.
func (s *Stack) echo(size int) []byte {
	if cap(s.echoBody) < size {
		s.echoBody = make([]byte, size)
	}
	return s.echoBody[:size]
}

// ClosePing releases an echo context created with PingOpen.
func (s *Stack) ClosePing(id uint16) { delete(s.pings, id) }

func (s *Stack) pingReply(pkt *ip.Packet, m *icmp.Message) {
	ctx := s.pings[m.ID]
	if ctx == nil {
		return
	}
	t0, ok := ctx.sent[m.Seq]
	if !ok {
		return
	}
	delete(ctx.sent, m.Seq)
	cb := ctx.callback
	// One-shot contexts are released, and recycled with their map, before
	// the callback runs, so a callback that immediately pings again may
	// reuse the id.
	if !ctx.open {
		delete(s.pings, m.ID)
		clear(ctx.sent)
		ctx.callback = nil
		s.sparePing = ctx
	}
	if cb != nil {
		cb(m.Seq, s.Sched.Now().Sub(t0), pkt.Src)
	}
}

func (s *Stack) String() string {
	return fmt.Sprintf("stack(%s, %d ifs, fwd=%v)", s.Hostname, len(s.ifs), s.Forwarding)
}
