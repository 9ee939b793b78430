// Package arp implements RFC 826 address resolution generalized over
// hardware types, exactly as the paper needs it: the same protocol
// resolves IP addresses to 6-byte Ethernet addresses on the DEQNA side
// and to 7-byte AX.25 callsign addresses on the packet-radio side
// ("Thus, a different set of ARP routines is needed for packet radio").
//
// The Resolver below is the per-interface engine: a cache with expiry,
// a hold queue for packets awaiting resolution, and request
// retransmission. Drivers own their Resolver, matching the paper's
// placement of ARP inside the driver.
package arp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/sim"
)

// Hardware types (RFC 826 / assigned numbers).
const (
	HTypeEthernet = 1
	HTypeAX25     = 3
)

// Opcodes.
const (
	OpRequest = 1
	OpReply   = 2
)

// EtherTypeIP is the protocol type resolved (0x0800).
const EtherTypeIP = 0x0800

// Packet is a wire ARP packet with variable hardware address length.
type Packet struct {
	HType uint16
	PType uint16
	Op    uint16
	SHA   []byte  // sender hardware address
	SPA   ip.Addr // sender protocol address
	THA   []byte  // target hardware address (zero for requests)
	TPA   ip.Addr // target protocol address
}

var errShort = errors.New("arp: truncated packet")
var errBadLen = errors.New("arp: inconsistent address lengths")

// Marshal renders the packet. SHA and THA must be the same length.
func (p *Packet) Marshal() ([]byte, error) { return p.MarshalTo(nil) }

// MarshalTo appends the packet to dst and returns the extended slice,
// or dst unchanged and an error. dst grows only when its spare
// capacity is too small.
func (p *Packet) MarshalTo(dst []byte) ([]byte, error) {
	if len(p.SHA) != len(p.THA) {
		return dst, errBadLen
	}
	hlen := len(p.SHA)
	if hlen == 0 || hlen > 255 {
		return dst, errBadLen
	}
	start := len(dst)
	dst = append(dst, make([]byte, 8+2*hlen+8)...)
	buf := dst[start:]
	binary.BigEndian.PutUint16(buf[0:], p.HType)
	binary.BigEndian.PutUint16(buf[2:], p.PType)
	buf[4] = byte(hlen)
	buf[5] = 4 // IPv4 protocol address length
	binary.BigEndian.PutUint16(buf[6:], p.Op)
	o := 8
	copy(buf[o:], p.SHA)
	o += hlen
	copy(buf[o:], p.SPA[:])
	o += 4
	copy(buf[o:], p.THA)
	o += hlen
	copy(buf[o:], p.TPA[:])
	return dst, nil
}

// Unmarshal parses a wire packet into a new Packet.
func Unmarshal(buf []byte) (*Packet, error) {
	p := new(Packet)
	if err := p.Parse(buf); err != nil {
		return nil, err
	}
	return p, nil
}

// Parse parses a wire packet into p, overwriting every field. SHA and
// THA are copied into p's own storage, reused from its last parse, so
// a packet parsed into again allocates nothing. On error p is left
// unchanged.
func (p *Packet) Parse(buf []byte) error {
	if len(buf) < 8 {
		return errShort
	}
	hlen := int(buf[4])
	plen := int(buf[5])
	if plen != 4 {
		return fmt.Errorf("arp: unsupported protocol address length %d", plen)
	}
	if hlen == 0 {
		return errBadLen // Marshal cannot render it either
	}
	need := 8 + 2*hlen + 8
	if len(buf) < need {
		return errShort
	}
	p.HType = binary.BigEndian.Uint16(buf[0:])
	p.PType = binary.BigEndian.Uint16(buf[2:])
	p.Op = binary.BigEndian.Uint16(buf[6:])
	o := 8
	p.SHA = append(p.SHA[:0], buf[o:o+hlen]...)
	o += hlen
	copy(p.SPA[:], buf[o:])
	o += 4
	p.THA = append(p.THA[:0], buf[o:o+hlen]...)
	o += hlen
	copy(p.TPA[:], buf[o:])
	return nil
}

func (p *Packet) String() string {
	op := "request"
	if p.Op == OpReply {
		op = "reply"
	}
	return fmt.Sprintf("arp %s who-has %s tell %s", op, p.TPA, p.SPA)
}

// Entry is one cache entry.
type Entry struct {
	HW      []byte
	Expires sim.Time
	Static  bool
}

// ResolverStats counts resolution events.
type ResolverStats struct {
	Hits      uint64
	Misses    uint64
	Requests  uint64
	Replies   uint64 // replies we sent
	Learned   uint64 // entries created/refreshed from traffic
	HeldDrops uint64 // packets dropped when resolution failed
	Expired   uint64
}

// maxRequests bounds the requests sent for one destination before its
// held packets drop.
const maxRequests = 5

// Resolver is the per-interface ARP engine.
type Resolver struct {
	// Immutable identity.
	HType uint16
	MyHW  []byte
	MyIP  ip.Addr

	// CacheTTL is the entry lifetime (default 20 minutes, as in BSD).
	CacheTTL time.Duration
	// RequestInterval spaces retransmitted requests (default 1 s).
	RequestInterval time.Duration
	// MaxHold bounds packets held per unresolved destination
	// (default 1, like the single ARP hold mbuf in BSD).
	MaxHold int

	// AcceptUnsolicited learns the sender mapping of every ARP packet
	// heard, not just RFC 826's merge-if-present — the KA9Q NOS
	// behaviour AX.25 networks relied on, where a gateway's broadcast
	// gratuitous reply seeds every station's cache in one frame.
	AcceptUnsolicited bool

	// SendPacket transmits an ARP packet; dstHW nil means broadcast.
	SendPacket func(p *Packet, dstHW []byte)
	// Deliver transmits a held IP datagram once its next hop resolves.
	// pkt is valid only for the call.
	Deliver func(pkt *ip.Packet, dstHW []byte)
	// Trace, when non-nil, observes the hold queue for the packet
	// tracer: "hold" as a datagram parks awaiting resolution, "flush"
	// as resolution arrives and it re-enters the transmit path, and
	// one event per held datagram dropped (each counted in HeldDrops):
	// "overflow" when a newer hold evicts it, "unresolved" when the
	// requests go unanswered and the hold is given up. pkt is valid
	// only for the call.
	Trace func(event string, pkt *ip.Packet)

	Stats ResolverStats

	sched   *sim.Scheduler
	cache   map[ip.Addr]*Entry
	pending map[ip.Addr]*pendingEntry

	// in is the packet Receive parses into.
	in Packet
}

type pendingEntry struct {
	held  []*ip.Packet
	tries int
	timer *sim.Event
}

// NewResolver builds a resolver for one interface.
func NewResolver(sched *sim.Scheduler, htype uint16, myHW []byte, myIP ip.Addr) *Resolver {
	return &Resolver{
		HType:           htype,
		MyHW:            append([]byte(nil), myHW...),
		MyIP:            myIP,
		CacheTTL:        20 * time.Minute,
		RequestInterval: time.Second,
		MaxHold:         1,
		sched:           sched,
		cache:           make(map[ip.Addr]*Entry),
		pending:         make(map[ip.Addr]*pendingEntry),
	}
}

// AddStatic installs a permanent entry (the published/manual entries
// real AMPRnet gateways carry).
func (r *Resolver) AddStatic(addr ip.Addr, hw []byte) {
	r.cache[addr] = &Entry{HW: append([]byte(nil), hw...), Static: true}
}

// Lookup consults the cache without generating traffic.
func (r *Resolver) Lookup(addr ip.Addr) ([]byte, bool) {
	e, ok := r.cache[addr]
	if !ok {
		return nil, false
	}
	if !e.Static && r.sched.Now() >= e.Expires {
		delete(r.cache, addr)
		r.Stats.Expired++
		return nil, false
	}
	return e.HW, true
}

// Enqueue resolves nextHop and then delivers pkt through the Deliver
// callback; if the address is cached this happens synchronously.
// Otherwise a copy of the packet is held (up to MaxHold per
// destination; older holds drop, as in the classic single-mbuf ARP
// hold) and a request goes out. pkt itself is lent for the call only:
// the IP stack reuses it and its payload for the next datagram.
func (r *Resolver) Enqueue(pkt *ip.Packet, nextHop ip.Addr) {
	if hw, ok := r.Lookup(nextHop); ok {
		r.Stats.Hits++
		r.Deliver(pkt, hw)
		return
	}
	r.Stats.Misses++
	pe := r.pending[nextHop]
	if pe == nil {
		pe = &pendingEntry{}
		r.pending[nextHop] = pe
		r.sendRequest(nextHop, pe)
	}
	max := r.MaxHold
	if max <= 0 {
		max = 1
	}
	if len(pe.held) >= max {
		drop := len(pe.held) - max + 1
		r.dropHeld("overflow", pe.held[:drop])
		pe.held = pe.held[drop:]
	}
	pkt = pkt.Clone()
	pe.held = append(pe.held, pkt)
	if r.Trace != nil {
		r.Trace("hold", pkt)
	}
}

func (r *Resolver) sendRequest(target ip.Addr, pe *pendingEntry) {
	pe.tries++
	r.Stats.Requests++
	req := &Packet{
		HType: r.HType, PType: EtherTypeIP, Op: OpRequest,
		SHA: r.MyHW, SPA: r.MyIP,
		THA: make([]byte, len(r.MyHW)), TPA: target,
	}
	r.SendPacket(req, nil)
	pe.timer = r.sched.After(r.RequestInterval, func() {
		if r.pending[target] != pe {
			return
		}
		if pe.tries >= maxRequests {
			delete(r.pending, target)
			r.dropHeld("unresolved", pe.held)
			return
		}
		r.sendRequest(target, pe)
	})
}

// dropHeld counts held datagrams dropped for the reason event names,
// and reports each to Trace.
func (r *Resolver) dropHeld(event string, held []*ip.Packet) {
	r.Stats.HeldDrops += uint64(len(held))
	if r.Trace != nil {
		for _, pkt := range held {
			r.Trace(event, pkt)
		}
	}
}

// Receive parses a received wire packet into storage the resolver owns
// and processes it as Input does. It reports the parse error, if any.
func (r *Resolver) Receive(buf []byte) error {
	if err := r.in.Parse(buf); err != nil {
		return err
	}
	r.Input(&r.in)
	return nil
}

// Input processes a received ARP packet, learning the sender mapping
// and answering requests for our own address, per the RFC 826
// algorithm.
func (r *Resolver) Input(p *Packet) {
	if p.HType != r.HType || p.PType != EtherTypeIP {
		return
	}
	merge := false
	if _, ok := r.cache[p.SPA]; ok || r.AcceptUnsolicited {
		r.learn(p.SPA, p.SHA)
		merge = true
	}
	if p.TPA != r.MyIP {
		return
	}
	if !merge {
		r.learn(p.SPA, p.SHA)
	}
	if p.Op == OpRequest {
		r.Stats.Replies++
		reply := &Packet{
			HType: r.HType, PType: EtherTypeIP, Op: OpReply,
			SHA: r.MyHW, SPA: r.MyIP,
			THA: p.SHA, TPA: p.SPA,
		}
		r.SendPacket(reply, p.SHA)
	}
}

func (r *Resolver) learn(addr ip.Addr, hw []byte) {
	if addr.IsZero() {
		return
	}
	e := r.cache[addr]
	if e != nil && e.Static {
		return
	}
	if e == nil || !bytes.Equal(e.HW, hw) {
		r.cache[addr] = &Entry{HW: append([]byte(nil), hw...), Expires: r.sched.Now().Add(r.CacheTTL)}
	} else {
		e.Expires = r.sched.Now().Add(r.CacheTTL)
	}
	r.Stats.Learned++

	// Flush any packets held for this destination.
	if pe, ok := r.pending[addr]; ok {
		delete(r.pending, addr)
		if pe.timer != nil {
			r.sched.Cancel(pe.timer)
		}
		hw := r.cache[addr].HW
		for _, pkt := range pe.held {
			if r.Trace != nil {
				r.Trace("flush", pkt)
			}
			r.Deliver(pkt, hw)
		}
	}
}

// Learn installs (or refreshes) a mapping gleaned outside the ARP
// exchange proper — the NOS-style "auto ARP" that reads the link
// source of a received IP frame. Held packets flush exactly as they
// would on a reply.
func (r *Resolver) Learn(addr ip.Addr, hw []byte) { r.learn(addr, hw) }

// Announce broadcasts a gratuitous reply advertising our own mapping
// (TPA = SPA, the classic ARP announce). Receivers running
// AcceptUnsolicited seed their caches from it.
func (r *Resolver) Announce() {
	r.SendPacket(&Packet{
		HType: r.HType, PType: EtherTypeIP, Op: OpReply,
		SHA: r.MyHW, SPA: r.MyIP,
		THA: make([]byte, len(r.MyHW)), TPA: r.MyIP,
	}, nil)
}

// CacheSize reports live cache entries.
func (r *Resolver) CacheSize() int { return len(r.cache) }

// Flush drops all dynamic entries.
func (r *Resolver) Flush() {
	for k, e := range r.cache {
		if !e.Static {
			delete(r.cache, k)
		}
	}
}
