// Package icmp implements the Internet Control Message Protocol
// messages the reproduction needs — echo, destination unreachable,
// time exceeded, redirect — plus the two experimental messages the
// paper proposes in §4.3 for gateway access control:
//
//	"One message can force an entry to be removed from the table of
//	authorized non-amateur systems. ... Another message would allow one
//	to add an authorized non-amateur host to the tables with an
//	appropriately chosen time-to-live. Both these message are allowed
//	to come from either side of the gateway, but if they come from the
//	non-amateur side, they must include a call sign and a password for
//	an authorized control operator for the gateway."
package icmp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"packetradio/internal/ip"
)

// Message types.
const (
	TypeEchoReply       = 0
	TypeDestUnreachable = 3
	TypeRedirect        = 5
	TypeEcho            = 8
	TypeTimeExceeded    = 11

	// Experimental types for the paper's §4.3 gateway authorization
	// scheme (chosen from the >41 then-unassigned space).
	TypeGatewayAuthAdd = 150
	TypeGatewayAuthDel = 151
)

// Destination-unreachable codes.
const (
	CodeNetUnreachable   = 0
	CodeHostUnreachable  = 1
	CodeProtoUnreachable = 2
	CodePortUnreachable  = 3
	CodeFragNeeded       = 4
	CodeAdminProhibited  = 13 // used when the ACL refuses a packet
)

// Time-exceeded codes.
const (
	CodeTTLExceeded        = 0
	CodeReassemblyExceeded = 1
)

var errShort = errors.New("icmp: truncated message")
var errChecksum = errors.New("icmp: bad checksum")

// Message is a parsed ICMP message. For echo, ID/Seq are meaningful;
// for redirects, Gateway is the better first hop; for errors, Body
// holds the offending header + 8 bytes per RFC 792.
type Message struct {
	Type, Code uint8
	ID, Seq    uint16  // echo only
	Gateway    ip.Addr // redirect only
	Body       []byte
}

// Marshal renders the message with checksum into a new buffer.
func (m *Message) Marshal() []byte { return m.MarshalTo(nil) }

// MarshalTo appends the message with checksum to dst and returns the
// extended slice. dst grows only when its spare capacity is too small,
// so rendering into a reused buffer (buf[:0]) allocates nothing once it
// is large enough.
func (m *Message) MarshalTo(dst []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8+len(m.Body))[:n+8+len(m.Body)]
	buf := dst[n:]
	buf[0] = m.Type
	buf[1] = m.Code
	// A reused buffer holds old bytes in the checksum and in the
	// type-specific word, which only some types fill.
	clear(buf[2:8])
	switch m.Type {
	case TypeEcho, TypeEchoReply:
		binary.BigEndian.PutUint16(buf[4:], m.ID)
		binary.BigEndian.PutUint16(buf[6:], m.Seq)
	case TypeRedirect:
		copy(buf[4:8], m.Gateway[:])
	}
	copy(buf[8:], m.Body)
	binary.BigEndian.PutUint16(buf[2:], ip.Checksum(buf))
	return dst
}

// Unmarshal parses and checksums a message. Body aliases buf.
func Unmarshal(buf []byte) (*Message, error) {
	m := &Message{}
	if err := m.Parse(buf); err != nil {
		return nil, err
	}
	return m, nil
}

// Parse is Unmarshal into m: it checks buf and, if it holds a message,
// overwrites every field of m with it. Body aliases buf. On error m is
// left unchanged.
func (m *Message) Parse(buf []byte) error {
	if len(buf) < 8 {
		return errShort
	}
	if ip.Checksum(buf) != 0 {
		return errChecksum
	}
	*m = Message{Type: buf[0], Code: buf[1], Body: buf[8:]}
	switch m.Type {
	case TypeEcho, TypeEchoReply:
		m.ID = binary.BigEndian.Uint16(buf[4:])
		m.Seq = binary.BigEndian.Uint16(buf[6:])
	case TypeRedirect:
		m.Gateway = ip.Addr(buf[4:8])
	}
	return nil
}

func (m *Message) String() string {
	switch m.Type {
	case TypeEcho:
		return fmt.Sprintf("icmp echo id=%d seq=%d", m.ID, m.Seq)
	case TypeEchoReply:
		return fmt.Sprintf("icmp echo-reply id=%d seq=%d", m.ID, m.Seq)
	case TypeDestUnreachable:
		return fmt.Sprintf("icmp unreachable code=%d", m.Code)
	case TypeTimeExceeded:
		return fmt.Sprintf("icmp time-exceeded code=%d", m.Code)
	case TypeRedirect:
		return fmt.Sprintf("icmp redirect code=%d", m.Code)
	case TypeGatewayAuthAdd:
		return "icmp gateway-auth-add"
	case TypeGatewayAuthDel:
		return "icmp gateway-auth-del"
	}
	return fmt.Sprintf("icmp type=%d code=%d", m.Type, m.Code)
}

// NewEcho builds an echo request carrying payload.
func NewEcho(id, seq uint16, payload []byte) *Message {
	return &Message{Type: TypeEcho, ID: id, Seq: seq, Body: payload}
}

// NewEchoReply builds the reply to an echo request, echoing its body.
func NewEchoReply(req *Message) *Message {
	return &Message{Type: TypeEchoReply, ID: req.ID, Seq: req.Seq, Body: req.Body}
}

// NewError builds an ICMP error quoting the offending datagram's
// header plus the first 8 payload bytes, per RFC 792.
func NewError(typ, code uint8, offending *ip.Packet) *Message {
	quoted, err := quoteDatagram(offending)
	if err != nil {
		quoted = nil
	}
	return &Message{Type: typ, Code: code, Body: quoted}
}

func quoteDatagram(p *ip.Packet) ([]byte, error) {
	q := *p
	if len(q.Payload) > 8 {
		q.Payload = q.Payload[:8]
	}
	return q.Marshal()
}

// QuotedHeader recovers the offending datagram header from an ICMP
// error body, so transports can match errors to connections.
func QuotedHeader(m *Message) (*ip.Packet, bool) {
	p, err := ip.Unmarshal(m.Body)
	if err != nil {
		return nil, false
	}
	return p, true
}

// --- §4.3 gateway authorization messages ------------------------------

// CallsignLen and PasswordLen fix the authenticator field sizes.
const (
	CallsignLen = 10
	PasswordLen = 10
)

// AuthPayload is the body of a TypeGatewayAuthAdd/Del message.
//
// Wire layout (all big endian):
//
//	0:4   TTL seconds (add only; ignored for del)
//	4:8   amateur-side host address
//	8:12  non-amateur-side host address
//	12:22 control-operator callsign (NUL padded)
//	22:32 password (NUL padded)
//
// The callsign/password pair is required only when the message arrives
// from the non-amateur side; amateur-side control operators are
// authenticated by their link-layer callsign (they are licensed
// operators transmitting under their own call).
type AuthPayload struct {
	TTLSeconds uint32
	Amateur    ip.Addr
	NonAmateur ip.Addr
	Callsign   string
	Password   string
}

// Marshal renders the payload.
func (a *AuthPayload) Marshal() []byte {
	buf := make([]byte, 12+CallsignLen+PasswordLen)
	binary.BigEndian.PutUint32(buf[0:], a.TTLSeconds)
	copy(buf[4:8], a.Amateur[:])
	copy(buf[8:12], a.NonAmateur[:])
	copy(buf[12:12+CallsignLen], a.Callsign)
	copy(buf[12+CallsignLen:], a.Password)
	return buf
}

// UnmarshalAuth parses an auth payload.
func UnmarshalAuth(body []byte) (*AuthPayload, error) {
	if len(body) < 12+CallsignLen+PasswordLen {
		return nil, errShort
	}
	a := &AuthPayload{TTLSeconds: binary.BigEndian.Uint32(body[0:])}
	copy(a.Amateur[:], body[4:8])
	copy(a.NonAmateur[:], body[8:12])
	a.Callsign = strings.TrimRight(string(body[12:12+CallsignLen]), "\x00")
	a.Password = strings.TrimRight(string(body[12+CallsignLen:12+CallsignLen+PasswordLen]), "\x00")
	return a, nil
}

// NewAuthAdd builds the §4.3 "add an authorized non-amateur host"
// message.
func NewAuthAdd(p *AuthPayload) *Message {
	return &Message{Type: TypeGatewayAuthAdd, Body: p.Marshal()}
}

// NewAuthDel builds the §4.3 "force an entry to be removed" message —
// the amateur operator's control-operator cutoff.
func NewAuthDel(p *AuthPayload) *Message {
	return &Message{Type: TypeGatewayAuthDel, Body: p.Marshal()}
}
