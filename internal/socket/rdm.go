package socket

import (
	"packetradio/internal/ip"
	"packetradio/internal/rdm"
)

// This file is the SOCK_RDM surface: per-message send/recv over the
// reliable-datagram transport (internal/rdm), with the same
// Dial/Listen/Accept shape as streams and the same readiness upcalls
// as every other socket type.

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
		typ:      SockRDM,
		layer:    l,
		stack:    l.stack,
		rcvHiwat: DefaultBuf,
	}
	s.rdmc = c
	c.OnMessage = func(p []byte, mode rdm.Mode) {
		// Reliable messages were acknowledged before the application
		// saw them, so unlike SOCK_DGRAM the receive queue must not
		// drop against the high-water mark — it only signals. The
		// transport's receive window bounds what can land here at once.
		s.enqueueRDM(Datagram{Src: c.RemoteAddr(), SrcPort: c.RemotePort(), Mode: mode, Data: p})
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

// enqueueRDM appends without the dgram drop-on-full policy (see
// OnMessage above); the mark still exists so Buffered-style callers
// can observe pressure.
func (s *Socket) enqueueRDM(d Datagram) {
	if s.closed {
		return
	}
	s.dq = append(s.dq, d)
	s.dqBytes += len(d.Data)
	s.signalReadable()
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

// RecvMsg pops one received message; the Datagram's Mode says which
// delivery mode it arrived under. Equivalent to RecvFrom, but
// reporting the latched SO_ERROR once the queue is drained.
func (s *Socket) RecvMsg() (Datagram, error) {
	if s.typ != SockRDM {
		return Datagram{}, ErrType
	}
	if s.closed {
		return Datagram{}, ErrClosed
	}
	if len(s.dq) == 0 {
		if err := s.takeError(); err != nil {
			return Datagram{}, err
		}
		if s.connDead {
			return Datagram{}, ErrClosed
		}
		return Datagram{}, ErrWouldBlock
	}
	return s.popDatagram(), nil
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

// --- Listener -------------------------------------------------------------

// RDMListener accepts inbound SOCK_RDM connections — peers whose
// first message arrived on the listening port.
type RDMListener struct {
	// OnAcceptable fires whenever the accept queue goes non-empty.
	OnAcceptable func()

	layer  *Layer
	ep     *rdm.Endpoint
	queue  []*Socket
	closed bool
}

// ListenRDM opens a listening RDM endpoint on port (0 picks an
// ephemeral one). Unlike stream listeners there is no backlog of
// half-open handshakes — a connection exists the moment a first
// message arrives, and it lands in the accept queue holding that
// message.
func (l *Layer) ListenRDM(port uint16) (*RDMListener, error) {
	ln := &RDMListener{layer: l}
	ep, err := l.RDM().Listen(port, func(c *rdm.Conn) {
		if ln.closed {
			c.Close()
			return
		}
		ln.queue = append(ln.queue, l.newRDMSocket(c))
		if ln.OnAcceptable != nil {
			ln.OnAcceptable()
		}
	})
	if err != nil {
		return nil, err
	}
	ln.ep = ep
	return ln, nil
}

// Accept pops one connection, or returns ErrWouldBlock / ErrClosed. A
// socket handed out by Accept already holds the message(s) that
// created it — drain RecvMsg before waiting on OnReadable.
func (ln *RDMListener) Accept() (*Socket, error) {
	if len(ln.queue) > 0 {
		s := ln.queue[0]
		ln.queue = ln.queue[1:]
		return s, nil
	}
	if ln.closed {
		return nil, ErrClosed
	}
	return nil, ErrWouldBlock
}

// AcceptLoopRDM arms the listener to hand every connection to fn as
// it arrives, including any already queued.
func AcceptLoopRDM(ln *RDMListener, fn func(*Socket)) {
	ln.OnAcceptable = func() {
		for {
			sock, err := ln.Accept()
			if err != nil {
				return
			}
			fn(sock)
		}
	}
	ln.OnAcceptable()
}

// Pending reports queued-but-unaccepted connections.
func (ln *RDMListener) Pending() int { return len(ln.queue) }

// Port reports the listening port.
func (ln *RDMListener) Port() uint16 { return ln.ep.Port }

// Close stops accepting; queued-but-unclaimed connections are closed.
// Established sockets live on. Idempotent.
func (ln *RDMListener) Close() error {
	if ln.closed {
		return nil
	}
	ln.closed = true
	ln.OnAcceptable = nil
	ln.ep.Close()
	for _, s := range ln.queue {
		s.Close()
	}
	ln.queue = nil
	return nil
}
