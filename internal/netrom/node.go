package netrom

import (
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/radio"
	"packetradio/internal/sim"
)

// RouteEntry is one learned destination.
type RouteEntry struct {
	Dest         ax25.Addr
	Alias        string
	BestNeighbor ax25.Addr
	Quality      uint8
	Obsolescence int // decremented each broadcast interval; dropped at 0
}

// NodeStats counts node activity.
type NodeStats struct {
	NodesSent     uint64
	NodesRcvd     uint64
	L3Forwarded   uint64
	L3Delivered   uint64
	L3TTLDrops    uint64
	L3NoRoute     uint64
	DatagramsSent uint64
	CircuitsOpen  uint64
	CRCErrors     uint64
}

// Route-quality rules of the node firmware.
const (
	// neighborQuality is the quality assumed for directly heard
	// neighbors (192/255 ≈ 0.75).
	neighborQuality = 192
	// minQuality filters out garbage routes.
	minQuality = 50
	// initialObsolescence is an entry's lifetime in broadcast rounds.
	initialObsolescence = 6
	// broadcastInterval spaces NODES broadcasts (the firmware used
	// 30-60 min on real channels).
	broadcastInterval = 30 * time.Second
)

// Node is one NET/ROM network node attached to a radio channel. Real
// nodes were dedicated TNC2 boxes on backbone frequencies.
type Node struct {
	Call  ax25.Addr
	Alias string

	// OnDatagram receives datagrams addressed to this node:
	// (origin node, protocol byte, payload).
	OnDatagram func(origin ax25.Addr, proto uint8, payload []byte)
	// AcceptCircuit, when set, admits inbound circuits.
	AcceptCircuit func(*Circuit) bool

	Stats NodeStats

	sched    *sim.Scheduler
	rf       *radio.Transceiver
	routes   map[ax25.Addr]*RouteEntry
	circuits map[uint16]*Circuit
	nextCID  uint8
	ticker   *sim.Ticker
}

// NewNode attaches a node to a channel.
func NewNode(sched *sim.Scheduler, ch *radio.Channel, call, alias string) *Node {
	n := &Node{
		Call:     ax25.MustAddr(call),
		Alias:    alias,
		sched:    sched,
		rf:       ch.Attach(call, radio.DefaultParams()),
		routes:   make(map[ax25.Addr]*RouteEntry),
		circuits: make(map[uint16]*Circuit),
	}
	n.rf.SetReceiver(n.fromRadio)
	return n
}

// Start begins periodic NODES broadcasts (and sends one immediately).
func (n *Node) Start() {
	n.BroadcastNodes()
	n.ticker = n.sched.Every(broadcastInterval, func() {
		n.age()
		n.BroadcastNodes()
	})
}

// Stop halts broadcasts (lets test schedulers drain).
func (n *Node) Stop() {
	if n.ticker != nil {
		n.ticker.Stop()
	}
}

// Routes exposes the routing table.
func (n *Node) Routes() map[ax25.Addr]*RouteEntry { return n.routes }

// RF exposes the transceiver (world wiring).
func (n *Node) RF() *radio.Transceiver { return n.rf }

func (n *Node) sendUI(dst ax25.Addr, payload []byte) {
	f := ax25.NewUI(dst, n.Call, ax25.PIDNetROM, payload)
	enc, err := f.Encode(nil)
	if err != nil {
		return
	}
	n.rf.Send(ax25.AppendFCS(enc))
}

// BroadcastNodes advertises this node and its table.
func (n *Node) BroadcastNodes() {
	b := &NodesBroadcast{Mnemonic: n.Alias}
	for _, r := range n.routes {
		b.Entries = append(b.Entries, NodesEntry{
			Dest: r.Dest, Alias: r.Alias, BestNeighbor: r.BestNeighbor, Quality: r.Quality,
		})
	}
	n.Stats.NodesSent++
	n.sendUI(ax25.Nodes, b.Marshal())
}

// age decrements obsolescence counts, dropping dead routes.
func (n *Node) age() {
	for k, r := range n.routes {
		r.Obsolescence--
		if r.Obsolescence <= 0 {
			delete(n.routes, k)
		}
	}
}

func (n *Node) fromRadio(framed []byte, damaged bool) {
	if damaged {
		n.Stats.CRCErrors++
		return
	}
	h := ax25.Hear(n.rf.Channel().Memo(), framed)
	if !h.OK {
		n.Stats.CRCErrors++
		return
	}
	f := &h.Frame
	if h.Err != nil || f.Kind != ax25.KindUI || f.PID != ax25.PIDNetROM {
		return
	}
	if f.Dst == ax25.Nodes {
		n.nodesInput(f)
		return
	}
	if f.Dst != n.Call {
		return
	}
	p, err := Unmarshal(f.Info)
	if err != nil {
		return
	}
	n.l3Input(p)
}

// nodesInput merges a neighbor's broadcast (the quality-product rule).
func (n *Node) nodesInput(f *ax25.Frame) {
	b, err := UnmarshalNodes(f.Info)
	if err != nil {
		return
	}
	n.Stats.NodesRcvd++
	neighbor := f.Src
	// The neighbor itself is reachable directly.
	n.merge(RouteEntry{Dest: neighbor, Alias: b.Mnemonic, BestNeighbor: neighbor, Quality: neighborQuality})
	for _, e := range b.Entries {
		if e.Dest == n.Call {
			continue // routes back to ourselves are useless
		}
		if e.BestNeighbor == n.Call {
			continue // poisoned reverse: the neighbor routes it via us
		}
		q := uint8(uint16(e.Quality) * neighborQuality / 256)
		if q < minQuality {
			continue
		}
		n.merge(RouteEntry{Dest: e.Dest, Alias: e.Alias, BestNeighbor: neighbor, Quality: q})
	}
}

func (n *Node) merge(e RouteEntry) {
	e.Obsolescence = initialObsolescence
	old, ok := n.routes[e.Dest]
	if !ok || e.Quality > old.Quality ||
		(old.BestNeighbor == e.BestNeighbor) {
		n.routes[e.Dest] = &e
	}
}

// l3Input handles a NET/ROM packet addressed to this node's link layer.
func (n *Node) l3Input(p *Packet) {
	if p.Dest != n.Call {
		// Transit traffic: forward toward the destination.
		if p.TTL <= 1 {
			n.Stats.L3TTLDrops++
			return
		}
		r, ok := n.routes[p.Dest]
		if !ok {
			n.Stats.L3NoRoute++
			return
		}
		q := *p
		q.TTL--
		n.Stats.L3Forwarded++
		n.sendUI(r.BestNeighbor, q.Marshal())
		return
	}
	n.Stats.L3Delivered++
	switch p.Op & 0x0F {
	case OpDatagram:
		if n.OnDatagram != nil {
			n.OnDatagram(p.Origin, p.Proto, append([]byte(nil), p.Info...))
		}
	default:
		n.circuitInput(p)
	}
}

// SendDatagram routes a connectionless payload toward dest.
func (n *Node) SendDatagram(dest ax25.Addr, proto uint8, payload []byte) bool {
	p := &Packet{
		Origin: n.Call, Dest: dest, TTL: DefaultTTL,
		Op: OpDatagram, Proto: proto, Info: payload,
	}
	n.Stats.DatagramsSent++
	if dest == n.Call {
		n.l3Input(p)
		return true
	}
	r, ok := n.routes[dest]
	if !ok {
		n.Stats.L3NoRoute++
		return false
	}
	n.sendUI(r.BestNeighbor, p.Marshal())
	return true
}

// HasRoute reports whether dest is in the table.
func (n *Node) HasRoute(dest ax25.Addr) bool {
	_, ok := n.routes[dest]
	return ok
}
