// Package udp implements the User Datagram Protocol over the
// simulated IP stack. The distributed callbook service of §5 and the
// NET/ROM NODES-style tooling use it.
package udp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"packetradio/internal/icmp"
	"packetradio/internal/ip"
	"packetradio/internal/ipstack"
)

// HeaderLen is the fixed UDP header size.
const HeaderLen = 8

var (
	errShort    = errors.New("udp: truncated datagram")
	errChecksum = errors.New("udp: bad checksum")
	// ErrPortInUse reports a Bind to an occupied port.
	ErrPortInUse = errors.New("udp: port in use")
	// ErrClosed reports I/O on a closed socket.
	ErrClosed = errors.New("udp: use of closed socket")
)

// Marshal builds a UDP segment with checksum.
func Marshal(src, dst ip.Addr, srcPort, dstPort uint16, payload []byte) []byte {
	seg := make([]byte, HeaderLen+len(payload))
	binary.BigEndian.PutUint16(seg[0:], srcPort)
	binary.BigEndian.PutUint16(seg[2:], dstPort)
	binary.BigEndian.PutUint16(seg[4:], uint16(len(seg)))
	copy(seg[8:], payload)
	cs := ip.PseudoChecksum(src, dst, ip.ProtoUDP, seg)
	if cs == 0 {
		cs = 0xFFFF // 0 means "no checksum" on the wire
	}
	binary.BigEndian.PutUint16(seg[6:], cs)
	return seg
}

// Unmarshal validates a segment and returns ports and payload.
func Unmarshal(src, dst ip.Addr, seg []byte) (srcPort, dstPort uint16, payload []byte, err error) {
	if len(seg) < HeaderLen {
		return 0, 0, nil, errShort
	}
	length := int(binary.BigEndian.Uint16(seg[4:]))
	if length < HeaderLen || length > len(seg) {
		return 0, 0, nil, errShort
	}
	seg = seg[:length]
	if binary.BigEndian.Uint16(seg[6:]) != 0 { // checksum in use
		if ip.PseudoChecksum(src, dst, ip.ProtoUDP, seg) != 0 {
			return 0, 0, nil, errChecksum
		}
	}
	return binary.BigEndian.Uint16(seg[0:]), binary.BigEndian.Uint16(seg[2:]), seg[8:], nil
}

// Handler receives datagrams delivered to a bound socket.
type Handler func(src ip.Addr, srcPort uint16, payload []byte)

// Stats counts mux-level events.
type Stats struct {
	In          uint64
	Out         uint64
	BadChecksum uint64
	NoPort      uint64
}

// Mux is a host's UDP layer.
type Mux struct {
	Stats Stats

	stack    *ipstack.Stack
	binds    map[uint16]*Socket
	nextPort uint16
}

// NewMux attaches a UDP layer to stack.
func NewMux(stack *ipstack.Stack) *Mux {
	m := &Mux{stack: stack, binds: make(map[uint16]*Socket), nextPort: 1024}
	stack.RegisterProto(ip.ProtoUDP, m.input)
	return m
}

// Socket is one bound port.
type Socket struct {
	Port uint16

	mux     *Mux
	handler Handler
	closed  bool
}

// Bind claims a port; port 0 picks an ephemeral one.
func (m *Mux) Bind(port uint16, h Handler) (*Socket, error) {
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
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	s := &Socket{Port: port, mux: m, handler: h}
	m.binds[port] = s
	return s, nil
}

// Close releases the port. Idempotent; if the port has since been
// rebound by another socket, that binding is left alone.
func (s *Socket) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.handler = nil
	if s.mux.binds[s.Port] == s {
		delete(s.mux.binds, s.Port)
	}
}

// SendTo transmits one datagram from this socket.
func (s *Socket) SendTo(dst ip.Addr, dstPort uint16, payload []byte) error {
	if s.closed {
		return ErrClosed
	}
	s.mux.Stats.Out++
	seg := Marshal(s.mux.stack.Addr(), dst, s.Port, dstPort, payload)
	return s.mux.stack.Send(ip.ProtoUDP, ip.Addr{}, dst, seg, 0, 0)
}

func (m *Mux) input(pkt *ip.Packet, ifName string) {
	srcPort, dstPort, payload, err := Unmarshal(pkt.Src, pkt.Dst, pkt.Payload)
	if err != nil {
		m.Stats.BadChecksum++
		return
	}
	m.Stats.In++
	s := m.binds[dstPort]
	if s == nil || s.closed {
		// The closed check guards a datagram already in flight when its
		// socket closed within the same event cascade.
		m.Stats.NoPort++
		m.stack.RaiseError(icmp.TypeDestUnreachable, icmp.CodePortUnreachable, pkt)
		return
	}
	if s.handler != nil {
		s.handler(pkt.Src, srcPort, append([]byte(nil), payload...))
	}
}
