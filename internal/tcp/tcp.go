package tcp

import (
	"errors"
	"fmt"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/ipstack"
	"packetradio/internal/sim"
)

// RTOMode selects the retransmission-timer policy — the axis of the
// paper's §4.1 discussion.
type RTOMode int

const (
	// RTOAdaptive estimates round-trip time with RFC 793 smoothing,
	// applies Karn's sampling rule, and backs the timer off
	// exponentially on loss. "Fortunately, many implementations of TCP
	// dynamically adjust their timeout values. Hence, when the system
	// on the Ethernet side learns the correct timeout value, the
	// frequency of unnecessary packet retransmissions is reduced."
	RTOAdaptive RTOMode = iota
	// RTOFixed retransmits on a constant interval with no learning and
	// no backoff — the naive Ethernet-era implementation whose
	// behaviour across the gateway §4.1 describes: "the system on the
	// Ethernet side initially retransmits packets several times before
	// a response makes it back ... wasted bandwidth."
	RTOFixed
)

// Retransmission timeouts.
const (
	fixedRTO   = 1500 * time.Millisecond // the RTOFixed interval
	initialRTO = 3 * time.Second         // adaptive pre-sample timeout
	minRTO     = time.Second             // the slow-tick floor
	maxRTO     = 64 * time.Second
)

// WindowBytes is the advertised receive window and also the send
// buffer unit: 2048, the 4.3BSD-era socket buffer. The socket layer
// sizes a stream's receive buffer to match it.
const WindowBytes = 2048

// Config tunes one connection.
type Config struct {
	Mode       RTOMode
	MaxRetries int // give up after this many timeouts; default 12

	// MSS forced; 0 derives 536 (RFC 879 default). End hosts on the
	// radio side set 216 (AX.25 MTU 256 − 40).
	MSS int
	// SlowStart enables a Tahoe-style congestion window (ablation
	// extension; off by default to match pre-VJ stacks).
	SlowStart bool
}

func (c Config) withDefaults() Config {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 12
	}
	if c.MSS <= 0 {
		c.MSS = 536
	}
	return c
}

// ProtoStats counts layer-wide events.
type ProtoStats struct {
	SegsIn        uint64
	SegsOut       uint64
	BadChecksum   uint64
	RSTsOut       uint64
	NoPort        uint64
	Accepts       uint64
	Connects      uint64
	ListenRefused uint64 // SYNs refused by a listener's OnSyn gate
	Persists      uint64 // zero-window probes sent across all connections
}

type connKey struct {
	localAddr  ip.Addr
	localPort  uint16
	remoteAddr ip.Addr
	remotePort uint16
}

// Listener accepts inbound connections on a port.
type Listener struct {
	Port   uint16
	Accept func(*Conn) // invoked at establishment
	Config Config      // config applied to accepted connections

	// OnSyn, when non-nil, is consulted for each inbound SYN before a
	// connection is created; returning false refuses it with RST. The
	// socket layer enforces its listen backlog here.
	OnSyn func() bool
	// OnSynDone, when non-nil, fires once per connection this listener
	// spawned, when its handshake either completes (established=true,
	// just before Accept) or fails (established=false).
	OnSynDone func(established bool)

	proto *Proto
}

// Close stops accepting. Idempotent, and a no-op if another listener
// has since bound the port.
func (l *Listener) Close() {
	if l.proto.listeners[l.Port] == l {
		delete(l.proto.listeners, l.Port)
	}
}

// Proto is a host's TCP layer.
type Proto struct {
	// DefaultConfig is copied into connections that do not supply one.
	DefaultConfig Config

	Stats ProtoStats

	stack     *ipstack.Stack
	sched     *sim.Scheduler
	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16
}

// New attaches a TCP layer to stack.
func New(stack *ipstack.Stack) *Proto {
	p := &Proto{
		stack:     stack,
		sched:     stack.Sched,
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  1024,
	}
	stack.RegisterProto(ip.ProtoTCP, p.input)
	return p
}

// ErrPortInUse reports a Listen on an occupied port.
var ErrPortInUse = errors.New("tcp: port in use")

// Listen installs a listener; accept runs when a connection reaches
// ESTABLISHED.
func (p *Proto) Listen(port uint16, accept func(*Conn)) (*Listener, error) {
	if _, ok := p.listeners[port]; ok {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	l := &Listener{Port: port, Accept: accept, Config: p.DefaultConfig, proto: p}
	p.listeners[port] = l
	return l, nil
}

// Dial opens a connection to dst:port using the proto's DefaultConfig.
func (p *Proto) Dial(dst ip.Addr, port uint16) *Conn {
	return p.DialConfig(dst, port, p.DefaultConfig)
}

// DialConfig opens a connection with an explicit configuration.
func (p *Proto) DialConfig(dst ip.Addr, port uint16, cfg Config) *Conn {
	local := p.sourceFor(dst)
	lport := p.allocPort()
	c := newConn(p, connKey{local, lport, dst, port}, cfg, true)
	p.conns[c.key] = c
	c.connect()
	return c
}

func (p *Proto) allocPort() uint16 {
	for {
		port := p.nextPort
		p.nextPort++
		if p.nextPort == 0 {
			p.nextPort = 1024
		}
		inUse := false
		for k := range p.conns {
			if k.localPort == port {
				inUse = true
				break
			}
		}
		if !inUse {
			return port
		}
	}
}

// sourceFor picks the local address facing dst.
func (p *Proto) sourceFor(dst ip.Addr) ip.Addr {
	if ent, err := p.stack.Routes.Lookup(dst); err == nil {
		if a, _, ok := p.stack.IfAddr(ent.IfName); ok {
			return a
		}
	}
	return p.stack.Addr()
}

// Conns exposes live connections (monitoring).
func (p *Proto) Conns() map[connKey]*Conn { return p.conns }

func (p *Proto) input(pkt *ip.Packet, ifName string) {
	seg, err := Unmarshal(pkt.Src, pkt.Dst, pkt.Payload)
	if err != nil {
		p.Stats.BadChecksum++
		return
	}
	p.Stats.SegsIn++
	key := connKey{pkt.Dst, seg.DstPort, pkt.Src, seg.SrcPort}
	if c, ok := p.conns[key]; ok {
		c.segment(seg)
		return
	}
	// New connection? Only a bare SYN to a listening port qualifies.
	if seg.has(FlagSYN) && !seg.has(FlagACK) {
		if l, ok := p.listeners[seg.DstPort]; ok {
			if l.OnSyn != nil && !l.OnSyn() {
				// Backlog full (or listener refusing): answer RST so
				// the client fails fast with ECONNREFUSED rather than
				// retrying a SYN we will never service.
				p.Stats.ListenRefused++
				p.sendRST(key, seg)
				return
			}
			c := newConn(p, key, l.Config, false)
			c.listener = l
			c.synPending = true
			p.conns[key] = c
			c.passiveOpen(seg)
			return
		}
	}
	p.Stats.NoPort++
	p.sendRST(key, seg)
}

// sendRST answers a segment for which no connection exists.
func (p *Proto) sendRST(key connKey, seg *Segment) {
	if seg.has(FlagRST) {
		return
	}
	rst := &Segment{SrcPort: key.localPort, DstPort: key.remotePort, Flags: FlagRST}
	if seg.has(FlagACK) {
		rst.Seq = seg.Ack
	} else {
		rst.Flags |= FlagACK
		rst.Ack = seg.Seq + uint32(len(seg.Payload))
		if seg.has(FlagSYN) {
			rst.Ack++
		}
	}
	p.Stats.RSTsOut++
	p.transmit(key, rst)
}

func (p *Proto) transmit(key connKey, seg *Segment) {
	p.Stats.SegsOut++
	buf := seg.Marshal(key.localAddr, key.remoteAddr)
	_ = p.stack.Send(ip.ProtoTCP, key.localAddr, key.remoteAddr, buf, 0, 0)
}

func (p *Proto) remove(c *Conn) { delete(p.conns, c.key) }
