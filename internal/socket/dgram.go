package socket

import (
	"packetradio/internal/ip"
	"packetradio/internal/ipstack"
)

// Datagram opens a SOCK_DGRAM socket bound to port (0 picks an
// ephemeral port). Received datagrams queue in the receive sockbuf up
// to its high-water mark; beyond it they are dropped and counted,
// which is exactly what a full 4.3BSD sockbuf did to UDP.
func (l *Layer) Datagram(port uint16) (*Socket, error) {
	s := &Socket{
		typ:      SockDgram,
		stack:    l.stack,
		rcvHiwat: DefaultBuf,
	}
	ds, err := l.UDP().Bind(port, s.dgramInput)
	if err != nil {
		return nil, err
	}
	s.dsock = ds
	return s, nil
}

func (s *Socket) dgramInput(src ip.Addr, srcPort uint16, payload []byte) {
	s.enqueue(Datagram{Src: src, SrcPort: srcPort, Data: payload})
}

// enqueue appends a datagram to the receive queue, honoring the
// high-water mark (but always admitting one datagram into an empty
// queue, so an oversized message is not undeliverable).
func (s *Socket) enqueue(d Datagram) {
	if s.closed {
		return
	}
	if len(s.dq) > 0 && s.dqBytes+len(d.Data) > s.rcvHiwat {
		s.Stats.RcvDrops++
		return
	}
	s.dq = append(s.dq, d)
	s.dqBytes += len(d.Data)
	s.signalReadable()
}

// PumpDatagrams wires a datagram, raw or RDM socket's readable events
// into sink: every queued message is drained and handed over,
// including any already waiting. The message analog of Pump.
func PumpDatagrams(s *Socket, sink func(Datagram)) {
	drain := func() {
		for {
			d, err := s.RecvFrom()
			if err != nil {
				return
			}
			sink(d)
		}
	}
	s.OnReadable = drain
	drain()
}

// RecvFrom pops one received message (SOCK_DGRAM, SOCK_RAW and
// SOCK_RDM; the Datagram's Mode says which delivery mode an RDM
// message arrived under). With the queue empty it reports, in order:
// the latched SO_ERROR (consumed), ErrClosed once the connection is
// gone, or ErrWouldBlock. Only an RDM socket latches an error or loses
// its connection.
func (s *Socket) RecvFrom() (Datagram, error) {
	if s.typ == SockStream {
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
	// The rest slide down one slot, so the queue's backing array is
	// reused from the front and a queue that drains never regrows it.
	d := s.dq[0]
	n := copy(s.dq, s.dq[1:])
	s.dq[n] = Datagram{}
	s.dq = s.dq[:n]
	s.dqBytes -= len(d.Data)
	s.Stats.BytesRead += uint64(len(d.Data))
	return d, nil
}

// SendTo transmits one datagram. For SOCK_DGRAM, dst:port addresses
// the remote socket; for SOCK_RAW, port is ignored and the payload
// goes out as the socket's IP protocol via the routing table.
func (s *Socket) SendTo(dst ip.Addr, port uint16, payload []byte) error {
	if s.closed {
		return ErrClosed
	}
	switch s.typ {
	case SockDgram:
		s.Stats.BytesWritten += uint64(len(payload))
		return s.dsock.SendTo(dst, port, payload)
	case SockRaw:
		s.Stats.BytesWritten += uint64(len(payload))
		return s.stack.Send(s.rawProto, ip.Addr{}, dst, payload, 0, 0)
	}
	return ErrType
}

// --- SOCK_RAW -------------------------------------------------------------

// NewRaw opens a SOCK_RAW socket receiving and sending datagrams of
// one IP protocol on stack. It needs no Layer around the stack — how
// a routing daemon bootstraps before anything else exists on the
// host.
func NewRaw(stack *ipstack.Stack, proto uint8) (*Socket, error) {
	if stack.HasProto(proto) {
		return nil, ErrProtoInUse
	}
	s := &Socket{
		typ:      SockRaw,
		stack:    stack,
		rawProto: proto,
		rcvHiwat: DefaultBuf,
	}
	stack.RegisterProtoOwned(proto, s.rawInput, s)
	return s, nil
}

// rawInput queues a copy of the payload: the stack lends it for the
// call only.
func (s *Socket) rawInput(pkt *ip.Packet, ifName string) {
	s.enqueue(Datagram{Src: pkt.Src, IfName: ifName, Data: append([]byte(nil), pkt.Payload...)})
}

// SendVia transmits a raw datagram out the named interface without
// consulting the routing table — dst must be on-link or the limited
// broadcast. This is the chicken-and-egg escape a routing daemon
// needs to emit hellos and floods before any routes exist.
func (s *Socket) SendVia(ifName string, dst ip.Addr, payload []byte) error {
	if s.typ != SockRaw {
		return ErrType
	}
	if s.closed {
		return ErrClosed
	}
	s.Stats.BytesWritten += uint64(len(payload))
	return s.stack.SendVia(ifName, s.rawProto, dst, payload, 0)
}
