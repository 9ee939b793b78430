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
	// exhausted MaxRexmits.
	ErrTimeout = errors.New("rdm: peer not responding")
	// ErrStale latches on a connection reaped by the quiet-period
	// sweeper.
	ErrStale = errors.New("rdm: connection reaped after quiet period")
	// ErrTooBig reports a message larger than Config.MaxMessage.
	ErrTooBig = errors.New("rdm: message exceeds maximum size")
)

// recvWindow bounds the receive-side reorder buffer, in messages.
const recvWindow = 64

// Config tunes a host's RDM layer. The zero value takes defaults
// suited to fast links; RadioProfile returns the multi-second-RTT
// tuning the paper's §4.1 would demand for the 1200 bps channel.
type Config struct {
	// InitialRTO seeds the retransmission timeout before any RTT
	// sample; MinRTO/MaxRTO clamp the adaptive value (RFC 6298 with
	// the floor raised for radio, exactly the paper's TCP complaint).
	InitialRTO time.Duration // default 3 s
	MinRTO     time.Duration // default 1 s
	MaxRTO     time.Duration // default 64 s

	// ByteTime extends each retransmission deadline by the
	// serialization cost of every byte still in flight: deadline =
	// RTO + ByteTime × outstanding bytes. On a 1200 bps channel a 2 KB
	// burst takes ~17 s of airtime before the first ACK can possibly
	// return, and an unscaled timer would retransmit into its own
	// queue — the §4.1 lesson, applied per message.
	ByteTime time.Duration // default 1 ms/byte

	// AckDelay is how long the receiver may sit on a pending
	// acknowledgment waiting for piggyback or coalescing; AckEvery
	// forces a standalone ACK once that many reliable messages are
	// pending acknowledgment.
	AckDelay time.Duration // default 500 ms
	AckEvery int           // default 4

	// NakDelay is how long a gap must persist before the receiver
	// NAKs it (late reordering is not loss), and the per-seq re-NAK
	// spacing.
	NakDelay time.Duration // default 500 ms

	// MaxRexmits fails the connection after that many retransmissions
	// of a single message.
	MaxRexmits int // default 8

	// Window bounds reliable messages in flight; SndBuf bounds the
	// bytes queued behind a full window before Send returns
	// ErrWouldBlock.
	Window int // default 16
	SndBuf int // default 8192 bytes

	// MaxMessage bounds one message's payload (IP fragmentation
	// carries larger-than-MTU messages, so the bound is reassembly
	// buffer, not MTU).
	MaxMessage int // default 8192

	// StaleAfter is the quiet period after which the sweeper reaps a
	// connection with nothing in flight; SweepEvery is the sweep
	// cadence.
	StaleAfter time.Duration // default 10 min
	SweepEvery time.Duration // default 1 min
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	def := func(d *time.Duration, v time.Duration) {
		if *d == 0 {
			*d = v
		}
	}
	def(&c.InitialRTO, 3*time.Second)
	def(&c.MinRTO, time.Second)
	def(&c.MaxRTO, 64*time.Second)
	def(&c.ByteTime, time.Millisecond)
	def(&c.AckDelay, 500*time.Millisecond)
	def(&c.NakDelay, 500*time.Millisecond)
	def(&c.StaleAfter, 10*time.Minute)
	def(&c.SweepEvery, time.Minute)
	if c.AckEvery == 0 {
		c.AckEvery = 4
	}
	if c.MaxRexmits == 0 {
		c.MaxRexmits = 8
	}
	if c.Window == 0 {
		c.Window = 16
	}
	if c.SndBuf == 0 {
		c.SndBuf = 8192
	}
	if c.MaxMessage == 0 {
		c.MaxMessage = 8192
	}
	return c
}

// RadioProfile is the 1200 bps tuning: multi-second RTO floor, a
// per-byte deadline term matched to the channel's effective ~10 ms/B
// (air + per-frame key-up and contention overhead), and ACK/NAK
// delays wide enough to coalesce one acknowledgment frame per burst
// instead of one per message — standalone ACK airtime is goodput lost.
func RadioProfile() Config {
	return Config{
		InitialRTO: 10 * time.Second,
		MinRTO:     4 * time.Second,
		MaxRTO:     3 * time.Minute,
		ByteTime:   12 * time.Millisecond,
		AckDelay:   6 * time.Second,
		// Window-sized: the count-triggered flush transmits
		// immediately, which on a half-duplex channel mid-train is a
		// collision with the rest of the train. With AckEvery at the
		// send window the flush can only trigger when the sender is
		// stalled anyway, and the lull-seeking AckDelay handles every
		// shorter burst.
		AckEvery: 16,
		NakDelay: 4 * time.Second,
	}
}

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
	cfg      Config
	binds    map[uint16]*Endpoint
	conns    map[connKey]*Conn
	nextPort uint16
	sweeper  *sim.Ticker

	// seg is the buffer every connection marshals its packets into.
	seg []byte
}

// NewMux attaches an RDM layer to stack. cfg zero fields take the
// package defaults.
func NewMux(stack *ipstack.Stack, cfg Config) *Mux {
	m := &Mux{
		stack:    stack,
		sched:    stack.Sched,
		cfg:      cfg.WithDefaults(),
		binds:    make(map[uint16]*Endpoint),
		conns:    make(map[connKey]*Conn),
		nextPort: 1024,
	}
	stack.RegisterProto(ip.ProtoRDM, m.input)
	return m
}

// Config reports the mux's effective (default-filled) configuration.
func (m *Mux) Config() Config { return m.cfg }

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
		cfg:      m.cfg,
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
		m.sweeper = m.sched.Every(m.cfg.SweepEvery, m.sweep)
	}
	return c
}

// sweep reaps connections quiet past StaleAfter. A connection with
// reliable data still in flight is left to its retransmission timer —
// that path fails it with ErrTimeout and proper accounting.
func (m *Mux) sweep() {
	now := m.sched.Now()
	for _, c := range m.conns {
		if len(c.inflight) > 0 || len(c.sendQ) > 0 {
			continue
		}
		if now.Sub(c.lastHeard) >= m.cfg.StaleAfter {
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
