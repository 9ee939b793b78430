package socket

import (
	"io"

	"packetradio/internal/ip"
	"packetradio/internal/rdm"
	"packetradio/internal/tcp"
)

// Dial opens a SOCK_STREAM socket to dst:port using the layer's
// StreamDefaults. The socket is usable immediately: writes queue (up
// to the send high-water mark) and flush once the handshake
// completes; OnConnect fires at ESTABLISHED.
func (l *Layer) Dial(dst ip.Addr, port uint16) *Socket {
	s := l.newStream()
	// The connection's first SYN advertises tcp.WindowBytes; the
	// socket's receive mark matches it so the advertisement stays
	// truthful from the first segment on.
	s.attach(l.TCP().DialConfig(dst, port, l.StreamDefaults))
	return s
}

func (l *Layer) newStream() *Socket {
	s := &Socket{
		typ:      SockStream,
		stack:    l.stack,
		sndHiwat: DefaultBuf,
		rcvHiwat: tcp.WindowBytes,
	}
	s.sndLowat = s.sndHiwat / 2
	return s
}

// attach wires a TCP connection under the socket.
func (s *Socket) attach(c *tcp.Conn) {
	s.conn = c
	c.WindowFunc = func() int { return s.rcvHiwat - len(s.rcv) }
	c.OnConnect = func() {
		if s.OnConnect != nil {
			s.OnConnect()
		}
	}
	c.OnData = func(p []byte) {
		if s.closed || s.rdShut {
			return
		}
		s.rcv = append(s.rcv, p...)
		s.signalReadable()
	}
	c.OnPeerClose = func() {
		s.peerEOF = true
		s.signalReadable()
	}
	c.OnAcked = func() {
		if s.conn.Pending() <= s.sndLowat {
			s.signalWritable()
		}
	}
	c.OnClose = func(err error) {
		s.connDead = true
		if err != nil && s.soError == nil {
			s.soError = err
		}
		// Wake both directions so a parked reader or writer observes
		// the latched error (or EOF) instead of waiting forever.
		s.signalReadable()
		s.signalWritable()
	}
}

// Read drains up to len(p) bytes from the receive sockbuf. With the
// buffer empty it reports, in order: the latched SO_ERROR (consumed),
// io.EOF after the peer's FIN, or ErrWouldBlock. Draining data may
// emit a TCP window update, which is how a recovering reader restarts
// a stalled sender.
func (s *Socket) Read(p []byte) (int, error) {
	if s.typ != SockStream {
		return 0, ErrType
	}
	if s.closed || s.rdShut {
		return 0, ErrClosed
	}
	if len(s.rcv) == 0 {
		if err := s.takeError(); err != nil {
			return 0, err
		}
		if s.peerEOF {
			return 0, io.EOF
		}
		if s.connDead {
			return 0, ErrClosed
		}
		return 0, ErrWouldBlock
	}
	n := copy(p, s.rcv)
	s.rcv = s.rcv[n:]
	s.Stats.BytesRead += uint64(n)
	if !s.connDead {
		s.conn.NotifyWindowOpen()
	}
	return n, nil
}

// Buffered reports bytes waiting in the receive sockbuf.
func (s *Socket) Buffered() int { return len(s.rcv) }

// Write queues up to len(p) bytes behind the send high-water mark and
// returns how many it took; a full buffer returns (0, ErrWouldBlock)
// and OnWritable fires when the mark drains past the low-water point.
// Partial writes return (n < len(p), nil) — retry the remainder on
// writability, or let a Writer do it.
func (s *Socket) Write(p []byte) (int, error) {
	if s.typ != SockStream {
		return 0, ErrType
	}
	if s.closed || s.wrShut {
		return 0, ErrClosed
	}
	if err := s.takeError(); err != nil {
		return 0, err
	}
	if s.connDead {
		return 0, ErrClosed
	}
	space := s.sndHiwat - s.conn.Pending()
	if space <= 0 {
		return 0, ErrWouldBlock
	}
	n := len(p)
	if n > space {
		n = space
	}
	if err := s.conn.Send(p[:n]); err != nil {
		return 0, err
	}
	s.Stats.BytesWritten += uint64(n)
	return n, nil
}

// Shutdown closes one or both directions: ShutWr flushes queued data
// and sends FIN (further writes fail), ShutRd discards buffered and
// future received data.
func (s *Socket) Shutdown(how int) error {
	if s.typ != SockStream {
		return ErrType
	}
	if s.closed {
		return ErrClosed
	}
	if how&ShutRd != 0 {
		s.rdShut = true
		s.rcv = nil
	}
	if how&ShutWr != 0 && !s.wrShut {
		if s.wr != nil && s.wr.Buffered() > 0 {
			// An attached Writer still holds overflow: defer the FIN
			// until it drains, the way a blocking writer would have
			// finished its write(2) before calling shutdown(2).
			s.wr.shutWhenDrained = true
			return nil
		}
		s.wrShut = true
		if !s.connDead {
			s.conn.Close() // FIN after queued data
		}
	}
	return nil
}

// StreamStats exposes the underlying TCP connection counters (stream
// sockets only) without exposing the connection itself.
func (s *Socket) StreamStats() tcp.ConnStats {
	if s.conn == nil {
		return tcp.ConnStats{}
	}
	return s.conn.Stats
}

// LocalPort reports the local port (stream and datagram sockets).
func (s *Socket) LocalPort() uint16 {
	switch s.typ {
	case SockStream:
		if s.conn != nil {
			return s.conn.LocalPort()
		}
	case SockDgram:
		return s.dsock.Port
	}
	return 0
}

// --- Listener -------------------------------------------------------------

// Listener is a listening socket and its accept queue. A SOCK_STREAM
// listener (Listen) bounds the queue plus handshakes in flight by a
// backlog and refuses handshakes beyond it with RST (see DESIGN.md: we
// prefer a deterministic fast failure over 4.3BSD's silent drop, whose
// client-side symptom on a 1200 bps channel would be a minutes-long SYN
// retry ladder). A SOCK_RDM listener (ListenRDM) queues a connection
// the moment its first message arrives.
type Listener struct {
	// OnAcceptable fires whenever the accept queue goes non-empty.
	OnAcceptable func()

	layer   *Layer
	tl      *tcp.Listener // SOCK_STREAM
	ep      *rdm.Endpoint // SOCK_RDM
	backlog int
	queue   []*Socket
	inSyn   int // handshakes in flight, counted against the backlog
	closed  bool
}

// DefaultBacklog is applied when Listen is given a backlog <= 0 — the
// era's canonical listen(s, 5).
const DefaultBacklog = 5

// Listen opens a listening stream socket on port. backlog bounds
// handshaking plus accepted-but-unclaimed connections; <= 0 means
// DefaultBacklog.
func (l *Layer) Listen(port uint16, backlog int) (*Listener, error) {
	if backlog <= 0 {
		backlog = DefaultBacklog
	}
	ln := &Listener{layer: l, backlog: backlog}
	tl, err := l.TCP().Listen(port, ln.established)
	if err != nil {
		return nil, err
	}
	tl.Config = l.StreamDefaults
	tl.OnSyn = ln.onSyn
	tl.OnSynDone = ln.synDone
	ln.tl = tl
	return ln, nil
}

func (ln *Listener) onSyn() bool {
	if ln.closed || ln.inSyn+len(ln.queue) >= ln.backlog {
		return false
	}
	ln.inSyn++
	return true
}

func (ln *Listener) synDone(established bool) {
	if ln.inSyn > 0 {
		ln.inSyn--
	}
	_ = established // established conns arrive via ln.established
}

func (ln *Listener) established(c *tcp.Conn) {
	if ln.closed {
		c.Abort()
		return
	}
	s := ln.layer.newStream()
	s.attach(c)
	ln.push(s)
}

// push queues an accepted socket and signals acceptability.
func (ln *Listener) push(s *Socket) {
	ln.queue = append(ln.queue, s)
	if ln.OnAcceptable != nil {
		ln.OnAcceptable()
	}
}

// AcceptLoop arms the listener to hand every connection to fn as it
// becomes acceptable — the standard daemon accept loop, including any
// connections already queued.
func AcceptLoop(ln *Listener, fn func(*Socket)) {
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

// Accept pops one connection, or returns ErrWouldBlock (queue empty) /
// ErrClosed (listener closed). A socket handed out by Accept may
// already hold received data — consume Buffered() bytes of a stream,
// or drain RecvFrom on an RDM socket, before waiting on OnReadable.
func (ln *Listener) Accept() (*Socket, error) {
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

// Pending reports queued-but-unaccepted connections.
func (ln *Listener) Pending() int { return len(ln.queue) }

// Port reports the listening port.
func (ln *Listener) Port() uint16 {
	if ln.ep != nil {
		return ln.ep.Port
	}
	return ln.tl.Port
}

// Close stops listening and aborts every queued connection (a stream
// is reset, an RDM socket closed). Established sockets live on, and
// Accept afterwards returns ErrClosed. Idempotent.
func (ln *Listener) Close() error {
	if ln.closed {
		return nil
	}
	ln.closed = true
	ln.OnAcceptable = nil
	if ln.ep != nil {
		ln.ep.Close()
	} else {
		ln.tl.Close()
	}
	for _, s := range ln.queue {
		s.Abort()
	}
	ln.queue = nil
	return nil
}
