// Package socket is a 4.3BSD-flavored socket layer over the simulated
// protocol stack — the missing piece the paper takes for granted when
// it reports that "Telnet, FTP, and SMTP have all been successfully
// used across the gateway" with *unmodified* applications: those
// applications all spoke one interface, the socket layer, and the
// packet radio work slotted in underneath it.
//
// One Socket type spans four socket types, the three of 4.3BSD and
// reliable datagrams:
//
//   - SOCK_STREAM over TCP (Dial / Listen / Accept, Read / Write)
//   - SOCK_DGRAM over UDP (Datagram, SendTo / RecvFrom)
//   - SOCK_RAW over IP (NewRaw, SendTo / SendVia / RecvFrom — what a
//     routing daemon needs before any routes exist)
//   - SOCK_RDM over RDM (DialRDM / ListenRDM / Accept, SendMsg /
//     RecvFrom)
//
// A Listener and AcceptLoop serve both connection types, and RecvFrom
// reads every message type.
//
// Because the simulator is a single-threaded discrete-event machine,
// blocking calls become non-blocking calls plus readiness upcalls: a
// Read that would block returns ErrWouldBlock and OnReadable fires
// when it is worth retrying, exactly parallel to select(2) plus a
// non-blocking descriptor. Sockbuf semantics are real: send and
// receive buffers have high-water marks, a full send buffer pushes
// back on the writer, a full receive buffer closes the advertised TCP
// window and so pushes back on the remote sender, and asynchronous
// errors latch SO_ERROR-style until the application picks them up.
package socket

import (
	"errors"

	"packetradio/internal/ip"
	"packetradio/internal/ipstack"
	"packetradio/internal/rdm"
	"packetradio/internal/tcp"
	"packetradio/internal/udp"
)

// Type is the BSD socket type.
type Type int

const (
	SockStream Type = iota // reliable byte stream over TCP
	SockDgram              // datagrams over UDP
	SockRaw                // raw IP datagrams of one protocol
	SockRDM                // reliable datagrams over RDM (per-message delivery modes)
)

func (t Type) String() string {
	switch t {
	case SockStream:
		return "SOCK_STREAM"
	case SockDgram:
		return "SOCK_DGRAM"
	case SockRaw:
		return "SOCK_RAW"
	case SockRDM:
		return "SOCK_RDM"
	}
	return "SOCK_?"
}

// Shutdown directions.
const (
	ShutRd   = 1 << iota // discard further received data
	ShutWr               // flush, then FIN; no further writes
	ShutRdWr = ShutRd | ShutWr
)

// Errors. ErrWouldBlock is the event-driven stand-in for EWOULDBLOCK:
// retry when the matching readiness upcall fires.
var (
	ErrWouldBlock = errors.New("socket: operation would block")
	ErrClosed     = errors.New("socket: use of closed socket")
	ErrType       = errors.New("socket: wrong socket type for operation")
	ErrProtoInUse = errors.New("socket: raw protocol already bound")
)

// Default sockbuf high-water mark: the 4.3BSD-era 2048-byte socket
// buffer the paper's hosts ran with.
const DefaultBuf = 2048

// Layer is one host's socket layer: the single application-facing
// surface over that host's TCP, UDP and raw-IP transports. Transports
// attach lazily, so a host that only ever opens datagram sockets never
// grows a TCP layer.
type Layer struct {
	// StreamDefaults tunes stream sockets (the §4.1 RTO knobs, MSS,
	// window). Applied at Dial/Listen time; zero fields take protocol
	// defaults.
	StreamDefaults tcp.Config

	stack *ipstack.Stack
	tp    *tcp.Proto
	um    *udp.Mux
	rm    *rdm.Mux
}

// New attaches a socket layer to a host's IP stack.
func New(stack *ipstack.Stack) *Layer {
	return &Layer{stack: stack}
}

// Stack exposes the underlying IP stack.
func (l *Layer) Stack() *ipstack.Stack { return l.stack }

// TCP returns the host's TCP transport, creating it on first use.
func (l *Layer) TCP() *tcp.Proto {
	if l.tp == nil {
		l.tp = tcp.New(l.stack)
	}
	return l.tp
}

// TCPActive peeks at the TCP transport without creating it: nil until
// the first stream socket. Observability uses this so registering
// metrics never attaches a transport the host wasn't running.
func (l *Layer) TCPActive() *tcp.Proto { return l.tp }

// UDP returns the host's UDP transport, creating it on first use.
func (l *Layer) UDP() *udp.Mux {
	if l.um == nil {
		l.um = udp.NewMux(l.stack)
	}
	return l.um
}

// RDM returns the host's reliable-datagram transport, creating it on
// first use.
func (l *Layer) RDM() *rdm.Mux {
	if l.rm == nil {
		l.rm = rdm.NewMux(l.stack)
	}
	return l.rm
}

// RDMActive peeks at the RDM transport without creating it: nil until
// the first SOCK_RDM socket. Observability uses this so registering
// metrics never attaches a transport the host wasn't running.
func (l *Layer) RDMActive() *rdm.Mux { return l.rm }

// Datagram is one received SOCK_DGRAM, SOCK_RAW or SOCK_RDM message
// with its metadata — what recvfrom(2) returns.
type Datagram struct {
	Src     ip.Addr
	SrcPort uint16   // zero for raw sockets
	IfName  string   // receiving interface (raw sockets; "" otherwise)
	Mode    rdm.Mode // delivery mode the message arrived under (SOCK_RDM)
	Data    []byte
}

// SockStats counts per-socket events.
type SockStats struct {
	BytesRead    uint64
	BytesWritten uint64
	RcvDrops     uint64 // datagrams dropped against a full receive buffer
}

// Socket is one socket of any type. All methods and upcalls run on the
// simulation event loop; a call that cannot progress returns
// ErrWouldBlock rather than blocking.
type Socket struct {
	// OnReadable fires when Read/RecvFrom is worth retrying: data
	// arrived, EOF was reached, or an error latched.
	OnReadable func()
	// OnWritable fires when the send buffer has drained to its
	// low-water mark after a full-buffer rejection.
	OnWritable func()
	// OnConnect fires when an actively opened stream reaches
	// ESTABLISHED.
	OnConnect func()
	// OnMsgDelivered fires when a reliable SOCK_RDM message is
	// acknowledged by the peer, identified by the seq SendMsg
	// returned.
	OnMsgDelivered func(seq uint16)

	Stats SockStats

	typ   Type
	stack *ipstack.Stack

	// Stream state.
	conn     *tcp.Conn
	wr       *Writer // attached Writer, if any (NewWriter)
	rcv      []byte  // receive sockbuf
	sndHiwat int
	sndLowat int
	rcvHiwat int
	peerEOF  bool
	connDead bool
	rdShut   bool
	wrShut   bool
	soError  error // SO_ERROR latch; cleared by the Read/Write that reports it

	// Datagram / raw state.
	dsock    *udp.Socket
	rawProto uint8
	dq       []Datagram
	dqBytes  int

	// RDM state.
	rdmc *rdm.Conn

	closed bool
}

// Err peeks at the latched SO_ERROR without clearing it.
func (s *Socket) Err() error { return s.soError }

// Closed reports whether Close has been called.
func (s *Socket) Closed() bool { return s.closed }

// takeError consumes the SO_ERROR latch.
func (s *Socket) takeError() error {
	err := s.soError
	s.soError = nil
	return err
}

// signalReadable invokes the readable upcall if installed.
func (s *Socket) signalReadable() {
	if s.OnReadable != nil {
		s.OnReadable()
	}
}

func (s *Socket) signalWritable() {
	if s.OnWritable != nil {
		s.OnWritable()
	}
}

// Close releases the socket. Streams close gracefully (queued data is
// flushed, then FIN). Idempotent.
func (s *Socket) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.OnReadable, s.OnWritable, s.OnConnect = nil, nil, nil
	switch s.typ {
	case SockStream:
		if s.conn != nil && !s.connDead {
			s.conn.Close()
		}
		s.rcv = nil
	case SockDgram:
		s.dsock.Close()
		s.dq = nil
	case SockRaw:
		// Owned unregister: if another transport has since claimed the
		// protocol, leave its handler alone.
		s.stack.UnregisterProtoOwned(s.rawProto, s)
		s.dq = nil
	case SockRDM:
		if s.rdmc != nil {
			s.rdmc.Close()
		}
		s.dq = nil
	}
	return nil
}

// Abort resets a stream immediately (RST), discarding queued data.
// For other socket types it is Close.
func (s *Socket) Abort() {
	if s.typ == SockStream && !s.closed && s.conn != nil && !s.connDead {
		s.closed = true
		s.OnReadable, s.OnWritable, s.OnConnect = nil, nil, nil
		s.rcv = nil
		s.conn.Abort()
		return
	}
	s.Close()
}
