package socket

import (
	"math"

	"packetradio/internal/ip"
	"packetradio/internal/rdm"
)

// This file is the SOCK_RDM surface: per-message send over the
// reliable-datagram transport (internal/rdm). Accepting and receiving
// go through the calls every socket type uses (Listener, AcceptLoop,
// RecvFrom), and readiness through the same upcalls.

// DialRDM opens a SOCK_RDM socket to dst:port. There is no handshake:
// the socket is usable immediately, and the peer materializes its end
// on the first message.
func (l *Layer) DialRDM(dst ip.Addr, port uint16) (*Socket, error) {
	c, err := l.RDM().Dial(dst, port)
	if err != nil {
		return nil, err
	}
	return l.newRDMSocket(c), nil
}

func (l *Layer) newRDMSocket(c *rdm.Conn) *Socket {
	s := &Socket{
		typ:   SockRDM,
		stack: l.stack,
		rdmc:  c,
		// Reliable messages were acknowledged before the application
		// saw them, so unlike SOCK_DGRAM the receive queue must never
		// drop: its mark is unbounded, and the transport's receive
		// window bounds what can land here at once.
		rcvHiwat: math.MaxInt,
	}
	c.OnMessage = func(p []byte, mode rdm.Mode) {
		s.enqueue(Datagram{Src: c.RemoteAddr(), SrcPort: c.RemotePort(), Mode: mode, Data: p})
	}
	c.OnWritable = func() { s.signalWritable() }
	c.OnDelivered = func(seq uint16) {
		if s.OnMsgDelivered != nil {
			s.OnMsgDelivered(seq)
		}
	}
	c.OnClose = func(err error) {
		s.connDead = true
		if err != nil && s.soError == nil {
			s.soError = err
		}
		s.signalReadable()
		s.signalWritable()
	}
	return s
}

// SendMsg transmits one message in the given delivery mode and
// returns its sequence number (reliable and unreliable sequence
// spaces are independent). A full send window plus queue returns
// ErrWouldBlock; OnWritable fires when a retry is worth it.
func (s *Socket) SendMsg(mode rdm.Mode, payload []byte) (uint16, error) {
	if s.typ != SockRDM {
		return 0, ErrType
	}
	if s.closed {
		return 0, ErrClosed
	}
	if err := s.takeError(); err != nil {
		return 0, err
	}
	if s.connDead {
		return 0, ErrClosed
	}
	seq, err := s.rdmc.Send(mode, payload)
	switch err {
	case nil:
		s.Stats.BytesWritten += uint64(len(payload))
		return seq, nil
	case rdm.ErrWouldBlock:
		return 0, ErrWouldBlock
	default:
		return 0, err
	}
}

// MsgWritable reports whether SendMsg of an n-byte reliable message
// would be accepted right now.
func (s *Socket) MsgWritable(n int) bool {
	return s.typ == SockRDM && !s.closed && !s.connDead && s.rdmc.Writable(n)
}

// RDMPending reports reliable messages not yet acknowledged by the
// peer (in flight plus queued).
func (s *Socket) RDMPending() int {
	if s.rdmc == nil {
		return 0
	}
	return s.rdmc.Pending()
}

// ListenRDM opens a listening RDM endpoint on port (0 picks an
// ephemeral one). Unlike stream listeners there is no backlog of
// half-open handshakes — a connection exists the moment a first
// message arrives, and it lands in the accept queue holding that
// message.
func (l *Layer) ListenRDM(port uint16) (*Listener, error) {
	ln := &Listener{layer: l}
	ep, err := l.RDM().Listen(port, func(c *rdm.Conn) {
		if ln.closed {
			c.Close()
			return
		}
		ln.push(l.newRDMSocket(c))
	})
	if err != nil {
		return nil, err
	}
	ln.ep = ep
	return ln, nil
}
