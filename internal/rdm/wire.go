// Package rdm is a reliable-datagram transport (SOCK_RDM) for lossy,
// long-RTT radio paths — the message-oriented middle ground between
// UDP and TCP that the paper's goodput numbers argue for: TCP's
// three-way handshake, per-segment cumulative ACKs and byte-stream
// framing cost most of a 1200 bps channel (BENCH_sockets measures
// ~406 bps of 1200), while plain UDP gives up delivery entirely.
//
// RDM keeps UDP's datagram model and adds, per message, exactly as
// much reliability as the application asks for:
//
//	Unreliable         fire and forget (UDP with an RDM header)
//	UnreliableOrdered  fire and forget, but late-arriving older
//	                   messages are dropped (telemetry, positions)
//	Reliable           retransmitted until acknowledged; delivered
//	                   in arrival order
//	ReliableOrdered    retransmitted and released in send order
//
// There is no handshake: the first data packet creates the
// connection state on both ends, and both reliable sequence spaces
// start at zero by protocol (a receiver that lost its state drops
// out-of-window data until the sender's retransmission budget fails
// the connection and the application redials). Acknowledgment is a
// cumulative "next expected" sequence plus a 16-bit selective-ACK
// bitmask piggybacked on every packet, with receiver-driven NAKs for
// gap repair — on a half-duplex channel an explicit NAK buys a
// retransmission a full adaptive-timeout earlier than sender-side
// timers can. The retransmission timer is RFC 6298-style (SRTT +
// 4·RTTVAR, Karn's rule, exponential backoff) with two radio
// adaptations from the paper's §4.1 school: a multi-second floor, and
// a per-byte scaling term so a timeout covers the serialization time
// of everything in flight at 1200 bps. Connection state is reaped by
// a virtual-clock sweeper after a configurable quiet period, so dead
// peers cost a bounded amount of memory and no airtime.
package rdm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"packetradio/internal/ip"
)

// HeaderLen is the fixed RDM header size: src/dst port (4), type+mode
// (1), reserved (1), seq (2), ack (2), sack bitmask (2), checksum (2).
// The reserved byte keeps every field — the checksum above all — on a
// 16-bit boundary, which the Internet checksum's verify-to-zero
// identity depends on.
const HeaderLen = 14

// Type is the packet type, carried in the high nibble of byte 4.
type Type uint8

const (
	TypeData Type = 1 // application message (fragmented by IP if large)
	TypeAck  Type = 2 // standalone acknowledgment
	TypeNak  Type = 3 // explicit repair request; payload lists missing seqs
	TypeBye  Type = 4 // orderly teardown
)

func (t Type) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeAck:
		return "ack"
	case TypeNak:
		return "nak"
	case TypeBye:
		return "bye"
	}
	return fmt.Sprintf("type-%d", uint8(t))
}

// Mode is a data packet's delivery mode, carried in the low two bits
// of byte 4.
type Mode uint8

const (
	Unreliable        Mode = iota // sent once, delivered on arrival
	UnreliableOrdered             // sent once, late arrivals dropped
	Reliable                      // retransmitted until acknowledged, delivered on arrival
	ReliableOrdered               // retransmitted until acknowledged, delivered in order
)

// IsReliable reports whether messages of this mode are retransmitted
// until acknowledged.
func (m Mode) IsReliable() bool { return m == Reliable || m == ReliableOrdered }

// IsOrdered reports whether delivery order is constrained: reliable
// ordered messages are held for in-order release, unreliable ordered
// messages drop late arrivals older than the newest delivered.
func (m Mode) IsOrdered() bool { return m == UnreliableOrdered || m == ReliableOrdered }

func (m Mode) String() string {
	switch m {
	case Unreliable:
		return "unreliable"
	case UnreliableOrdered:
		return "unreliable-ordered"
	case Reliable:
		return "reliable"
	case ReliableOrdered:
		return "reliable-ordered"
	}
	return fmt.Sprintf("mode-%d", uint8(m))
}

// Header is a parsed RDM packet header. Ack is the cumulative
// acknowledgment expressed as "next expected reliable seq" (every
// reliable seq serially before it has been received); Sack bit i
// acknowledges seq Ack+1+i. Both ride on every packet, data included,
// so a receiver that is also sending never spends a frame on a bare
// ACK.
type Header struct {
	SrcPort, DstPort uint16
	Type             Type
	Mode             Mode // data packets only
	Seq              uint16
	Ack              uint16
	Sack             uint16
}

var (
	errShort    = errors.New("rdm: truncated packet")
	errChecksum = errors.New("rdm: bad checksum")
	errType     = errors.New("rdm: bad packet type")
)

// Marshal builds an RDM packet with checksum.
func Marshal(src, dst ip.Addr, h Header, payload []byte) []byte {
	return AppendPacket(nil, src, dst, h, payload)
}

// AppendPacket appends an RDM packet with checksum to b and returns the
// extended slice; b grows only when its spare capacity is too small.
func AppendPacket(b []byte, src, dst ip.Addr, h Header, payload []byte) []byte {
	start := len(b)
	b = append(b, make([]byte, HeaderLen)...)
	b = append(b, payload...)
	seg := b[start:]
	binary.BigEndian.PutUint16(seg[0:], h.SrcPort)
	binary.BigEndian.PutUint16(seg[2:], h.DstPort)
	seg[4] = uint8(h.Type)<<4 | uint8(h.Mode)&0x3
	binary.BigEndian.PutUint16(seg[6:], h.Seq)
	binary.BigEndian.PutUint16(seg[8:], h.Ack)
	binary.BigEndian.PutUint16(seg[10:], h.Sack)
	cs := ip.PseudoChecksum(src, dst, ip.ProtoRDM, seg)
	if cs == 0 {
		cs = 0xFFFF // 0 means "no checksum" on the wire
	}
	binary.BigEndian.PutUint16(seg[12:], cs)
	return b
}

// Unmarshal validates a packet and returns its header and payload.
// The payload aliases seg.
func Unmarshal(src, dst ip.Addr, seg []byte) (Header, []byte, error) {
	var h Header
	if len(seg) < HeaderLen {
		return h, nil, errShort
	}
	if binary.BigEndian.Uint16(seg[12:]) != 0 { // checksum in use
		if ip.PseudoChecksum(src, dst, ip.ProtoRDM, seg) != 0 {
			return h, nil, errChecksum
		}
	}
	h.SrcPort = binary.BigEndian.Uint16(seg[0:])
	h.DstPort = binary.BigEndian.Uint16(seg[2:])
	h.Type = Type(seg[4] >> 4)
	h.Mode = Mode(seg[4] & 0x3)
	switch h.Type {
	case TypeData, TypeAck, TypeNak, TypeBye:
	default:
		return h, nil, errType
	}
	h.Seq = binary.BigEndian.Uint16(seg[6:])
	h.Ack = binary.BigEndian.Uint16(seg[8:])
	h.Sack = binary.BigEndian.Uint16(seg[10:])
	return h, seg[HeaderLen:], nil
}

// maxNakSeqs bounds the missing-seq list in one NAK packet; it covers
// the whole receive window at default settings.
const maxNakSeqs = 16

// marshalNakList renders a NAK payload: a big-endian uint16 per
// missing seq.
func marshalNakList(seqs []uint16) []byte {
	if len(seqs) > maxNakSeqs {
		seqs = seqs[:maxNakSeqs]
	}
	p := make([]byte, 2*len(seqs))
	for i, s := range seqs {
		binary.BigEndian.PutUint16(p[2*i:], s)
	}
	return p
}

// unmarshalNakList parses a NAK payload, ignoring a trailing odd byte.
func unmarshalNakList(p []byte) []uint16 {
	n := len(p) / 2
	if n > maxNakSeqs {
		n = maxNakSeqs
	}
	seqs := make([]uint16, n)
	for i := range seqs {
		seqs[i] = binary.BigEndian.Uint16(p[2*i:])
	}
	return seqs
}

// seqLT compares sequence numbers in serial (wrap-around) arithmetic.
func seqLT(a, b uint16) bool { return int16(a-b) < 0 }

// seqLE is serial a <= b.
func seqLE(a, b uint16) bool { return int16(a-b) <= 0 }
