// Package ether simulates the Ethernet side of the paper's gateway:
// a 10 Mb/s broadcast segment and a DEQNA-like interface driver
// ("This driver supports the same calls as the drivers for other
// network devices such as the DEQNA"). ARP for IP-to-MAC resolution
// runs inside the driver, matching the paper's layering.
//
// The segment model is intentionally simple — full-duplex, collision
// free, per-sender serialization at the line rate — because nothing in
// the paper's evaluation depends on Ethernet contention; it exists to
// be four orders of magnitude faster than the 1200 bps radio channel,
// which is what creates the §4.1 timeout mismatch.
package ether

import (
	"fmt"
	"time"

	"packetradio/internal/arp"
	"packetradio/internal/ip"
	"packetradio/internal/netif"
	"packetradio/internal/sim"
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// BroadcastMAC is ff:ff:ff:ff:ff:ff.
var BroadcastMAC = MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// EtherTypes.
const (
	TypeIP  = 0x0800
	TypeARP = 0x0806
)

// HeaderLen is destination + source + ethertype.
const HeaderLen = 14

// MTU is the Ethernet payload limit.
const MTU = 1500

// DefaultBitRate is 10 Mb/s ("thick" Ethernet of the era).
const DefaultBitRate = 10_000_000

// Segment is one Ethernet broadcast domain.
type Segment struct {
	sched   *sim.Scheduler
	bitRate int
	nics    []*NIC
	byMAC   map[MAC]*NIC
	nextMAC uint32

	// group, when non-nil, is the sharded engine this segment is a seam
	// of (DESIGN.md §3g): NICs may live on different shard schedulers,
	// and frames for them cross as timestamped inter-shard messages.
	// Both engines route unicast frames the same way, to the owner of
	// the destination MAC alone, so group only decides which scheduler
	// each reception is queued on.
	group *sim.Group

	// blocked holds ordered NIC pairs (from,to) whose frames are
	// suppressed — a cut cable or failed transceiver tap, used by the
	// topology-churn experiments. Default (empty) is full connectivity.
	// In sharded mode it must not be mutated while the world runs: the
	// shards run each window in turn, so a change made at one shard's
	// clock would reach another shard's earlier events.
	blocked map[[2]*NIC]bool

	// Stats.
	Frames uint64
	Bytes  uint64
}

// NewSegment creates an Ethernet segment.
func NewSegment(sched *sim.Scheduler, bitRate int) *Segment {
	if bitRate <= 0 {
		bitRate = DefaultBitRate
	}
	return &Segment{sched: sched, bitRate: bitRate, nextMAC: 1,
		byMAC: make(map[MAC]*NIC), blocked: make(map[[2]*NIC]bool)}
}

// EnableSharding declares the segment a seam of group g: frames between
// NICs on different shard schedulers travel as cross-shard messages.
// Call after all NICs are attached via AttachOn.
func (g *Segment) EnableSharding(grp *sim.Group) { g.group = grp }

// MinFrameTime is the shortest possible frame serialization delay on a
// segment at bitRate (0 = DefaultBitRate) — the conservative lookahead
// bound for shards whose only outbound seam is an Ethernet leg: no
// event in such a shard can put a frame on a neighbor's NIC sooner
// than this after firing.
func MinFrameTime(bitRate int) time.Duration {
	if bitRate <= 0 {
		bitRate = DefaultBitRate
	}
	return (&Segment{bitRate: bitRate}).txTime(0)
}

// SetReachable declares whether frames from one NIC reach another
// (directed). All pairs start reachable.
func (g *Segment) SetReachable(from, to *NIC, ok bool) {
	g.blocked[[2]*NIC{from, to}] = !ok
}

// txTime is the serialization delay for a frame of n payload bytes.
func (g *Segment) txTime(n int) time.Duration {
	bits := (n + HeaderLen + 12) * 8 // header + preamble/FCS overhead
	return time.Duration(float64(bits) / float64(g.bitRate) * float64(time.Second))
}

// NIC is one attached interface; it implements netif.Interface.
type NIC struct {
	name  string
	mac   MAC
	seg   *Segment
	sched *sim.Scheduler // the NIC's event context (its host's shard)
	stack Input
	res   *arp.Resolver
	up    bool
	stats netif.Stats
	mtu   int
}

// Input is where received IP datagrams go — the IP input queue hookup.
type Input interface {
	Input(buf []byte, ifName string)
}

// Attach creates a NIC on segment g with the given interface name and
// IP identity, delivering received datagrams to stack.
func (g *Segment) Attach(name string, addr ip.Addr, stack Input) *NIC {
	return g.AttachOn(g.sched, name, addr, stack)
}

// AttachOn is Attach with the NIC's event context pinned to sched: ARP
// timers and frame receptions for this NIC run there. The sharded
// engine attaches each NIC on its host's shard scheduler; on the
// single-loop engine sched is the segment's own scheduler and AttachOn
// is exactly Attach.
func (g *Segment) AttachOn(sched *sim.Scheduler, name string, addr ip.Addr, stack Input) *NIC {
	var mac MAC
	mac[0] = 0x08 // DEC OUI-ish prefix 08:00:2b
	mac[1] = 0x00
	mac[2] = 0x2B
	mac[3] = byte(g.nextMAC >> 16)
	mac[4] = byte(g.nextMAC >> 8)
	mac[5] = byte(g.nextMAC)
	g.nextMAC++
	n := &NIC{name: name, mac: mac, seg: g, sched: sched, stack: stack, mtu: MTU}
	n.res = arp.NewResolver(sched, arp.HTypeEthernet, mac[:], addr)
	n.res.SendPacket = n.sendARP
	n.res.Deliver = n.deliverIP
	g.nics = append(g.nics, n)
	g.byMAC[mac] = n
	return n
}

// Name implements netif.Interface.
func (n *NIC) Name() string { return n.name }

// MTU implements netif.Interface.
func (n *NIC) MTU() int { return n.mtu }

// Up implements netif.Interface.
func (n *NIC) Up() bool { return n.up }

// Init implements netif.Interface.
func (n *NIC) Init() error { n.up = true; return nil }

// Stats implements netif.Interface.
func (n *NIC) Stats() *netif.Stats { return &n.stats }

// MAC reports the hardware address.
func (n *NIC) MAC() MAC { return n.mac }

// Segment reports which segment the NIC is attached to.
func (n *NIC) Segment() *Segment { return n.seg }

// Resolver exposes the driver's ARP engine (for static entries and
// stats in experiments).
func (n *NIC) Resolver() *arp.Resolver { return n.res }

// Output implements netif.Interface: resolve nextHop via ARP inside
// the driver, then frame and transmit.
func (n *NIC) Output(pkt *ip.Packet, nextHop ip.Addr) error {
	if !n.up {
		n.stats.Oerrors++
		return &netif.ErrDown{If: n.name}
	}
	if nextHop.IsBroadcast() {
		return n.sendIP(BroadcastMAC, pkt)
	}
	n.res.Enqueue(pkt, nextHop)
	return nil
}

func (n *NIC) deliverIP(pkt *ip.Packet, dstHW []byte) {
	var dst MAC
	copy(dst[:], dstHW)
	_ = n.sendIP(dst, pkt) // counted in Oerrors
}

// sendIP marshals pkt straight into a new frame, behind the header.
// The frame is the one copy of the datagram: it travels to the
// receivers, whose stacks may keep slices of it.
func (n *NIC) sendIP(dst MAC, pkt *ip.Packet) error {
	frame, err := pkt.MarshalTo(make([]byte, HeaderLen, HeaderLen+pkt.Len()))
	if err != nil {
		n.stats.Oerrors++
		return err
	}
	n.transmit(dst, TypeIP, frame)
	return nil
}

func (n *NIC) sendARP(p *arp.Packet, dstHW []byte) {
	buf, err := p.Marshal()
	if err != nil {
		return
	}
	dst := BroadcastMAC
	if dstHW != nil {
		copy(dst[:], dstHW)
	}
	n.transmit(dst, TypeARP, append(make([]byte, HeaderLen, HeaderLen+len(buf)), buf...))
}

// transmit fills in the header of frame, whose payload follows
// HeaderLen bytes left for it, and puts the frame on the segment.
func (n *NIC) transmit(dst MAC, etherType uint16, frame []byte) {
	n.stats.Opackets++
	n.stats.Obytes += uint64(len(frame) - HeaderLen)
	copy(frame[0:6], dst[:])
	copy(frame[6:12], n.mac[:])
	frame[12] = byte(etherType >> 8)
	frame[13] = byte(etherType)

	g := n.seg
	g.Frames++
	g.Bytes += uint64(len(frame))
	// The receive filter is the DEQNA's hardware address match, so a
	// unicast frame is scheduled only at the owner of its destination
	// MAC — any other NIC would discard it on reception — and a
	// broadcast at every NIC the sender reaches.
	at := n.sched.Now().Add(g.txTime(len(frame) - HeaderLen))
	if dst != BroadcastMAC {
		o := g.byMAC[dst]
		if o == nil || o == n || g.blocked[[2]*NIC{n, o}] {
			return
		}
		n.deliverAt(o, at, frame)
		return
	}
	for _, other := range g.nics {
		if other == n || g.blocked[[2]*NIC{n, other}] {
			continue
		}
		n.deliverAt(other, at, frame)
	}
}

// deliverAt schedules one reception at o. On the single-loop engine
// every NIC shares the segment's scheduler. On the sharded engine the
// reception lands in o's shard. Every receiver of a broadcast gets the
// same frame on either engine: receivers only read it.
func (n *NIC) deliverAt(o *NIC, at sim.Time, frame []byte) {
	g := n.seg
	switch {
	case g.group == nil:
		g.sched.At(at, func() { o.receive(frame) })
	case o.sched == n.sched:
		n.sched.At(at, func() { o.receive(frame) })
	default:
		g.group.Send(n.sched, o.sched, at, func() { o.receive(frame) })
	}
}

func (n *NIC) receive(frame []byte) {
	if !n.up || len(frame) < HeaderLen {
		return
	}
	var dst MAC
	copy(dst[:], frame[0:6])
	if dst != n.mac && dst != BroadcastMAC {
		return // not promiscuous
	}
	etherType := uint16(frame[12])<<8 | uint16(frame[13])
	payload := frame[HeaderLen:]
	n.stats.Ipackets++
	n.stats.Ibytes += uint64(len(payload))
	switch etherType {
	case TypeIP:
		if n.stack != nil {
			n.stack.Input(payload, n.name)
		}
	case TypeARP:
		p, err := arp.Unmarshal(payload)
		if err != nil {
			n.stats.Ierrors++
			return
		}
		n.res.Input(p)
	default:
		n.stats.NoProto++
	}
}
