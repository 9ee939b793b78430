package rdm

import (
	"errors"
	"fmt"
	"time"

	"packetradio/internal/icmp"
	"packetradio/internal/ip"
	"packetradio/internal/ipstack"
	"packetradio/internal/sim"
)

// Errors.
var (
	// ErrPortInUse reports a Listen on an occupied port.
	ErrPortInUse = errors.New("rdm: port in use")
	// ErrClosed reports I/O on a closed connection.
	ErrClosed = errors.New("rdm: use of closed connection")
	// ErrWouldBlock reports a send against a full window and send
	// queue; retry when OnWritable fires.
	ErrWouldBlock = errors.New("rdm: send would block")
	// ErrTimeout latches on a connection whose oldest reliable message
	// exhausted its retransmissions.
	ErrTimeout = errors.New("rdm: peer not responding")
	// ErrStale latches on a connection reaped by the quiet-period
	// sweeper.
	ErrStale = errors.New("rdm: connection reaped after quiet period")
	// ErrTooBig reports a message larger than the 8 KB maximum.
	ErrTooBig = errors.New("rdm: message exceeds maximum size")
)

// recvWindow bounds the receive-side reorder buffer, in messages.
const recvWindow = 64

// Timers and limits, sized for the multi-second RTTs of the 1200 bps
// channel: §4.1's lesson is that timers tuned for fast links
// retransmit into their own queue.
const (
	// initialRTO seeds the retransmission timeout before any RTT
	// sample; minRTO/maxRTO clamp the adaptive value (RFC 6298 with
	// the floor raised for radio, exactly the paper's TCP complaint).
	initialRTO = 10 * time.Second
	minRTO     = 4 * time.Second
	maxRTO     = 3 * time.Minute

	// byteTime extends each retransmission deadline by the
	// serialization cost of every byte still in flight: deadline =
	// RTO + byteTime × outstanding bytes, matched to the channel's
	// effective ~10 ms/B (air plus per-frame key-up and contention
	// overhead). A 2 KB burst takes ~17 s of airtime before the first
	// ACK can possibly return, and an unscaled timer would retransmit
	// into its own queue — the §4.1 lesson, applied per message.
	byteTime = 12 * time.Millisecond

	// ackDelay is how long the receiver may sit on a pending
	// acknowledgment waiting for piggyback or coalescing: wide enough
	// to coalesce one acknowledgment frame per burst instead of one
	// per message, since standalone ACK airtime is goodput lost.
	ackDelay = 6 * time.Second
	// ackEvery forces a standalone ACK once that many reliable
	// messages are pending acknowledgment. It is the send window: the
	// count-triggered flush transmits immediately, which on a
	// half-duplex channel mid-train is a collision with the rest of
	// the train. At the window it can only trigger when the sender is
	// stalled anyway, and the lull-seeking ackDelay handles every
	// shorter burst.
	ackEvery = window

	// nakDelay is how long a gap must persist before the receiver
	// NAKs it (late reordering is not loss), and the per-seq re-NAK
	// spacing.
	nakDelay = 4 * time.Second

	// maxRexmits fails the connection after that many retransmissions
	// of a single message.
	maxRexmits = 8

	// window bounds reliable messages in flight; sndBuf bounds the
	// bytes queued behind a full window before Send returns
	// ErrWouldBlock.
	window = 16
	sndBuf = 8192

	// maxMessage bounds one message's payload (IP fragmentation
	// carries larger-than-MTU messages, so the bound is reassembly
	// buffer, not MTU).
	maxMessage = 8192

	// staleAfter is the quiet period after which the sweeper reaps a
	// connection with nothing in flight; sweepEvery is the sweep
	// cadence. The receiver cannot see its peer's retransmission
	// ladder, so the period outlasts the longest one: maxRexmits+1
	// timeouts, each at most maxRTO plus the byte term for a full
	// window of maximum-size messages, about 4 h 23 min. A shorter
	// period reaps a connection whose every ACK was lost while the
	// sender still retransmits, and the late copy re-creates the
	// connection and is delivered again. The cost is that an idle
	// connection's state lives that long.
	staleAfter = (maxRexmits + 1) * (maxRTO + window*maxMessage*byteTime)
	sweepEvery = time.Minute
)

// Stats counts mux-level events across all connections; every field
// is obs.RegisterStruct-compatible.
type Stats struct {
	Sent        uint64 // data packets transmitted (first time)
	Resent      uint64 // data retransmissions (RTO and NAK driven)
	Acked       uint64 // reliable messages acknowledged at the sender
	Delivered   uint64 // messages delivered to the application
	DupDropped  uint64 // duplicate data packets discarded
	OutOfWindow uint64 // data beyond the reorder window, discarded
	AcksIn      uint64 // standalone ACK packets received
	AcksOut     uint64 // standalone ACK packets sent
	NaksIn      uint64 // NAK packets received
	NaksOut     uint64 // NAK packets sent
	BadChecksum uint64
	NoPort      uint64 // data for an unbound port
	StaleReaped uint64 // connections reaped by the quiet sweeper
	Failed      uint64 // connections failed by retransmission exhaustion
}

// connKey identifies one connection: remote address/port plus local
// port.
type connKey struct {
	raddr ip.Addr
	rport uint16
	lport uint16
}

// Mux is a host's RDM layer: the protocol handler, the port-bind
// table, and the live connections.
type Mux struct {
	Stats Stats

	stack    *ipstack.Stack
	sched    *sim.Scheduler
	binds    map[uint16]*Endpoint
	conns    map[connKey]*Conn
	nextPort uint16
	sweeper  *sim.Ticker

	// seg is the buffer every connection marshals its packets into.
	seg []byte
}

// NewMux attaches an RDM layer to stack.
func NewMux(stack *ipstack.Stack) *Mux {
	m := &Mux{
		stack:    stack,
		sched:    stack.Sched,
		binds:    make(map[uint16]*Endpoint),
		conns:    make(map[connKey]*Conn),
		nextPort: 1024,
	}
	stack.RegisterProto(ip.ProtoRDM, m.input)
	return m
}

// Endpoint is one listening port: inbound data for it creates
// connections handed to OnConn.
type Endpoint struct {
	// OnConn fires when a first packet from a new peer creates a
	// connection; it runs before that packet is processed, so
	// handlers installed on the Conn see the very first message.
	OnConn func(*Conn)

	Port uint16

	mux    *Mux
	closed bool
}

// Listen binds a port for inbound connections; port 0 picks an
// ephemeral one.
func (m *Mux) Listen(port uint16, onConn func(*Conn)) (*Endpoint, error) {
	port, err := m.allocPort(port)
	if err != nil {
		return nil, err
	}
	ep := &Endpoint{OnConn: onConn, Port: port, mux: m}
	m.binds[port] = ep
	return ep, nil
}

func (m *Mux) allocPort(port uint16) (uint16, error) {
	if port == 0 {
		for m.binds[m.nextPort] != nil {
			m.nextPort++
			if m.nextPort == 0 {
				m.nextPort = 1024
			}
		}
		port = m.nextPort
		m.nextPort++
	}
	if m.binds[port] != nil {
		return 0, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	return port, nil
}

// Close stops accepting new connections on the port; established
// connections live on. Idempotent.
func (ep *Endpoint) Close() {
	if ep.closed {
		return
	}
	ep.closed = true
	ep.OnConn = nil
	if ep.mux.binds[ep.Port] == ep {
		delete(ep.mux.binds, ep.Port)
	}
}

// Dial opens a connection to raddr:rport from an ephemeral local
// port. There is no handshake: the connection is usable immediately
// and the peer materializes state on the first data packet.
func (m *Mux) Dial(raddr ip.Addr, rport uint16) (*Conn, error) {
	lport, err := m.allocPort(0)
	if err != nil {
		return nil, err
	}
	// Reserve the ephemeral port against other Dials/Listens; the
	// endpoint never accepts (inbound to it matches the conn first).
	m.binds[lport] = &Endpoint{Port: lport, mux: m, closed: true}
	return m.newConn(connKey{raddr: raddr, rport: rport, lport: lport}, true), nil
}

func (m *Mux) newConn(key connKey, ownsPort bool) *Conn {
	c := &Conn{
		mux:      m,
		key:      key,
		ownsPort: ownsPort,
		inflight: make(map[uint16]*outMsg),
		ooo:      make(map[uint16][]byte),
		nakLast:  make(map[uint16]sim.Time),
	}
	c.rexmtFn, c.ackFn, c.nakFn = c.rexmtFire, c.ackFire, c.nakFire
	c.lastHeard = m.sched.Now()
	m.conns[key] = c
	if m.sweeper == nil {
		m.sweeper = m.sched.Every(sweepEvery, m.sweep)
	}
	return c
}

// sweep reaps connections quiet past staleAfter. A connection with
// reliable data still in flight is left to its retransmission timer —
// that path fails it with ErrTimeout and proper accounting.
func (m *Mux) sweep() {
	now := m.sched.Now()
	for _, c := range m.conns {
		if len(c.inflight) > 0 || len(c.sendQ) > 0 {
			continue
		}
		if now.Sub(c.lastHeard) >= staleAfter {
			m.Stats.StaleReaped++
			c.teardown(ErrStale)
		}
	}
}

// drop removes a connection from the mux and releases a Dial-owned
// ephemeral port.
func (m *Mux) drop(c *Conn) {
	if m.conns[c.key] == c {
		delete(m.conns, c.key)
	}
	if c.ownsPort {
		if ep := m.binds[c.key.lport]; ep != nil && ep.closed {
			delete(m.binds, c.key.lport)
		}
	}
}

// input is the protocol handler: checksum, demultiplex to a
// connection (creating one for first-contact data), dispatch by type.
func (m *Mux) input(pkt *ip.Packet, ifName string) {
	h, payload, err := Unmarshal(pkt.Src, pkt.Dst, pkt.Payload)
	if err != nil {
		m.Stats.BadChecksum++
		return
	}
	key := connKey{raddr: pkt.Src, rport: h.SrcPort, lport: h.DstPort}
	c := m.conns[key]
	if c == nil {
		// Only first-contact data creates state; a stray ACK/NAK/Bye
		// for a connection we no longer hold is stale noise.
		if h.Type != TypeData {
			return
		}
		ep := m.binds[h.DstPort]
		if ep == nil || ep.closed || ep.OnConn == nil {
			m.Stats.NoPort++
			m.stack.RaiseError(icmp.TypeDestUnreachable, icmp.CodePortUnreachable, pkt)
			return
		}
		c = m.newConn(key, false)
		ep.OnConn(c)
	}
	c.input(h, payload)
}
