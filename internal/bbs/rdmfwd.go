package bbs

import (
	"fmt"
	"strings"

	"packetradio/internal/ip"
	"packetradio/internal/rdm"
	"packetradio/internal/socket"
)

// This file ports BBS store-and-forward onto SOCK_RDM. The AX.25
// forwarder replays the whole S/Subject/body command dialogue over a
// connected-mode link, one session per message; here each mail item is
// a single ReliableOrdered message and the transport — not a scripted
// conversation — carries the delivery guarantee. The prompt-parsing
// state machine disappears entirely.

// RDMForwardPort is the well-known SOCK_RDM port for BBS mail
// exchange.
const RDMForwardPort = 6300

// marshalMail frames one message for the wire: four NUL-separated
// fields. NUL cannot appear in callsigns or in line-assembled
// subject/body text, so no escaping is needed — unlike the AX.25
// dialogue, which must mangle lone "." body lines.
func marshalMail(m Message) []byte {
	return []byte(m.From + "\x00" + m.To + "\x00" + m.Subject + "\x00" + m.Body)
}

func unmarshalMail(p []byte) (from, to, subject, body string, ok bool) {
	parts := strings.SplitN(string(p), "\x00", 4)
	if len(parts) != 4 {
		return "", "", "", "", false
	}
	return parts[0], parts[1], parts[2], parts[3], true
}

// RDMForwarder ships non-local mail to a peer board over a SOCK_RDM
// socket, one ReliableOrdered message per mail item. A single
// connection carries any number of items back to back — no per-message
// session setup — and the forwarder learns of each delivery through
// the transport's acknowledgment rather than by scraping a "stored"
// banner out of the peer's terminal output.
type RDMForwarder struct {
	Stats struct {
		Queued    uint64
		Delivered uint64
		Failures  uint64
	}

	board    *Board
	layer    *socket.Layer
	peer     ip.Addr
	port     uint16
	sock     *socket.Socket
	queue    []Message // not yet accepted by the transport
	inflight []fwdMail // handed to the transport, awaiting the peer's ack
}

type fwdMail struct {
	seq uint16
	msg Message
}

// NewRDMForwarder hooks a forwarder to board as its Forward handler
// and returns it. Mail for non-home users will be shipped to peer's
// board over SOCK_RDM; port 0 means RDMForwardPort.
func NewRDMForwarder(board *Board, layer *socket.Layer, peer ip.Addr, port uint16) *RDMForwarder {
	if port == 0 {
		port = RDMForwardPort
	}
	f := &RDMForwarder{board: board, layer: layer, peer: peer, port: port}
	board.Forward = f.enqueue
	return f
}

// enqueue is the Forwarder callback: accept responsibility and ship
// asynchronously.
func (f *RDMForwarder) enqueue(m Message) bool {
	f.Stats.Queued++
	f.queue = append(f.queue, m)
	f.pump()
	return true
}

// Pending reports undelivered messages (queued plus in flight).
func (f *RDMForwarder) Pending() int { return len(f.queue) + len(f.inflight) }

// pump pushes queued mail into the socket until the send window
// pushes back; OnWritable resumes it.
func (f *RDMForwarder) pump() {
	if len(f.queue) == 0 {
		return
	}
	if f.sock == nil && !f.dial() {
		return
	}
	for len(f.queue) > 0 {
		m := f.queue[0]
		seq, err := f.sock.SendMsg(rdm.ReliableOrdered, marshalMail(m))
		if err == socket.ErrWouldBlock {
			return
		}
		if err != nil {
			f.connLost()
			return
		}
		f.queue = f.queue[1:]
		f.inflight = append(f.inflight, fwdMail{seq: seq, msg: m})
	}
}

func (f *RDMForwarder) dial() bool {
	s, err := f.layer.DialRDM(f.peer, f.port)
	if err != nil {
		f.Stats.Failures++
		return false
	}
	f.sock = s
	s.OnWritable = f.pump
	s.OnMsgDelivered = f.delivered
	// The peer never sends application data, so readability means the
	// connection died (retransmission exhaustion, staleness, or a
	// peer close).
	s.OnReadable = func() {
		for {
			if _, err := s.RecvFrom(); err != nil {
				if err != socket.ErrWouldBlock {
					f.connLost()
				}
				return
			}
		}
	}
	return true
}

func (f *RDMForwarder) delivered(seq uint16) {
	for i, fm := range f.inflight {
		if fm.seq == seq {
			f.inflight = append(f.inflight[:i], f.inflight[i+1:]...)
			f.Stats.Delivered++
			break
		}
	}
}

// connLost requeues everything the dead connection still owed and
// drops the socket. Like the AX.25 forwarder it does not redial on
// its own — the transport already spent its entire retransmission
// budget — so a later Post kicks the queue again rather than looping
// on a dead path forever. An idle connection reaped by the staleness
// sweeper owed nothing and counts no failure.
func (f *RDMForwarder) connLost() {
	if f.sock == nil {
		return
	}
	s := f.sock
	f.sock = nil
	s.OnReadable, s.OnWritable, s.OnMsgDelivered = nil, nil, nil
	s.Close()
	if len(f.inflight) > 0 {
		f.Stats.Failures++
		requeued := make([]Message, 0, len(f.inflight)+len(f.queue))
		for _, fm := range f.inflight {
			requeued = append(requeued, fm.msg)
		}
		f.inflight = f.inflight[:0]
		f.queue = append(requeued, f.queue...)
	}
}

func (f *RDMForwarder) String() string {
	return fmt.Sprintf("rdm-forwarder->%s:%d (pending %d)", f.peer, f.port, f.Pending())
}

// ServeRDM opens a board's mail intake on the socket layer: every
// message arriving on the listening port is one piece of mail, posted
// to the board (and forwarded onward if its recipient is not local —
// multi-hop store-and-forward composes for free). port 0 means
// RDMForwardPort. Frames that don't parse are dropped; the transport
// already acknowledged them, and there is no one to bounce to.
func ServeRDM(board *Board, layer *socket.Layer, port uint16) (*socket.Listener, error) {
	if port == 0 {
		port = RDMForwardPort
	}
	ln, err := layer.ListenRDM(port)
	if err != nil {
		return nil, err
	}
	socket.AcceptLoop(ln, func(s *socket.Socket) {
		socket.PumpDatagrams(s, func(d socket.Datagram) {
			if from, to, subject, body, ok := unmarshalMail(d.Data); ok {
				board.Post(from, to, subject, body)
			}
		})
	})
	return ln, nil
}
