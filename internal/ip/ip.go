// Package ip implements the IPv4 wire format as the paper's gateway
// needs it: header marshalling, the Internet checksum, classful address
// semantics (AMPRnet is "a class 'A' network", §4.2), and
// fragmentation/reassembly — essential here because the AX.25 subnet
// MTU (256) is far below the Ethernet MTU (1500).
package ip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Addr is an IPv4 address.
type Addr [4]byte

// Well-known addresses.
var (
	Zero      = Addr{0, 0, 0, 0}
	Limited   = Addr{255, 255, 255, 255} // limited broadcast
	Loopback  = Addr{127, 0, 0, 1}
	AMPRClass = Addr{44, 0, 0, 0} // net 44, "assigned to Amateur Packet Radio"
)

// AddrFrom assembles an address from octets.
func AddrFrom(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) {
	var a Addr
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return a, fmt.Errorf("ip: bad address %q", s)
	}
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			return a, fmt.Errorf("ip: bad address %q", s)
		}
		a[i] = byte(n)
	}
	return a, nil
}

// MustAddr is ParseAddr that panics; for literals in tests and tools.
func MustAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IsZero reports the unspecified address.
func (a Addr) IsZero() bool { return a == Zero }

// IsBroadcast reports the limited broadcast address.
func (a Addr) IsBroadcast() bool { return a == Limited }

// IsMulticast reports a class D address.
func (a Addr) IsMulticast() bool { return a[0] >= 224 && a[0] < 240 }

// Uint32 returns the address in host integer form.
func (a Addr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// AddrFromUint32 is the inverse of Uint32.
func AddrFromUint32(v uint32) Addr {
	var a Addr
	binary.BigEndian.PutUint32(a[:], v)
	return a
}

// Mask is a netmask.
type Mask [4]byte

// Common masks.
var (
	MaskClassA = Mask{255, 0, 0, 0}
	MaskClassB = Mask{255, 255, 0, 0}
	MaskClassC = Mask{255, 255, 255, 0}
	MaskHost   = Mask{255, 255, 255, 255}
)

// ClassMask derives the 1988-era classful default mask for a: class A
// for 0.x–127.x, B for 128–191, C for 192–223. This is exactly why the
// paper's §4.2 problem exists: "Since AMPRnet has been allocated a
// class 'A' network, most systems will maintain only a single route
// for it."
func ClassMask(a Addr) Mask {
	switch {
	case a[0] < 128:
		return MaskClassA
	case a[0] < 192:
		return MaskClassB
	default:
		return MaskClassC
	}
}

// Apply masks an address.
func (m Mask) Apply(a Addr) Addr {
	return Addr{a[0] & m[0], a[1] & m[1], a[2] & m[2], a[3] & m[3]}
}

// Bits counts leading one bits in the mask.
func (m Mask) Bits() int { return bits.LeadingZeros32(^Addr(m).Uint32()) }

func (m Mask) String() string { return Addr(m).String() }

// SameNet reports whether a and b are on the same network under m.
func SameNet(a, b Addr, m Mask) bool { return m.Apply(a) == m.Apply(b) }

// Protocol numbers. ProtoRDM reuses RFC 908 RDP's assignment (27) for
// the reliable-datagram transport in internal/rdm.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoRDM  = 27
	ProtoUDP  = 17
)

// Header flag bits (in the flags/fragment-offset word).
const (
	FlagDF = 0x4000 // don't fragment
	FlagMF = 0x2000 // more fragments
)

// HeaderLen is the size of a header without options.
const HeaderLen = 20

// MaxPacket is the largest datagram we will build (the 4.3BSD
// IP_MAXPACKET is 65535; we keep the same bound).
const MaxPacket = 65535

// Header is a parsed IPv4 header.
type Header struct {
	TOS      uint8
	ID       uint16
	DF, MF   bool
	FragOff  uint16 // in 8-byte units
	TTL      uint8
	Proto    uint8
	Src, Dst Addr
	Options  []byte // raw options, length must be multiple of 4
}

// DefaultTTL matches 4.3BSD's ip_defttl era value.
const DefaultTTL = 30

var (
	errShort    = errors.New("ip: truncated packet")
	errVersion  = errors.New("ip: not IPv4")
	errChecksum = errors.New("ip: bad header checksum")
	errHdrLen   = errors.New("ip: bad header length")
	errOptions  = errors.New("ip: options not multiple of 4 bytes")
)

// Checksum computes the Internet one's-complement checksum of p.
func Checksum(p []byte) uint16 { return fold(sum(0, p)) }

// PseudoChecksum computes the checksum a TCP, UDP or RDM segment
// carries: over the 12-byte pseudo-header (src, dst, a zero byte,
// proto, and the segment length truncated to 16 bits) followed by seg.
// The pseudo-header has even length, so seg is summed in place with
// the same word alignment as in one contiguous buffer.
func PseudoChecksum(src, dst Addr, proto uint8, seg []byte) uint16 {
	var ph [12]byte
	copy(ph[0:4], src[:])
	copy(ph[4:8], dst[:])
	ph[9] = proto
	binary.BigEndian.PutUint16(ph[10:], uint16(len(seg)))
	return fold(sum(sum(0, ph[:]), seg))
}

// sum adds p to acc as big-endian 16-bit words, an odd last byte
// padded with a zero. It takes 8 bytes per step: the two 32-bit halves
// of each 64-bit word are added whole, since 2^16 ≡ 1 modulo 0xFFFF
// makes a 32-bit half worth the sum of its two 16-bit words in the
// ones'-complement arithmetic, and so is 2^32 for the final fold back
// to 32 bits. A nonzero sum stays nonzero, so fold returns exactly what
// a word-at-a-time sum gives.
func sum(acc uint32, p []byte) uint32 {
	s := uint64(acc)
	for len(p) >= 8 {
		w := binary.BigEndian.Uint64(p)
		s += w>>32 + w&0xFFFFFFFF
		p = p[8:]
	}
	for len(p) >= 2 {
		s += uint64(p[0])<<8 | uint64(p[1])
		p = p[2:]
	}
	if len(p) == 1 {
		s += uint64(p[0]) << 8
	}
	for s>>32 != 0 {
		s = s&0xFFFFFFFF + s>>32
	}
	return uint32(s)
}

// fold folds the carries of a word sum back in and complements it.
func fold(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = acc&0xFFFF + acc>>16
	}
	return ^uint16(acc)
}

// Packet is a full IP datagram.
type Packet struct {
	Header
	Payload []byte
}

// Len reports the datagram's total length on the wire: header,
// options and payload.
func (p *Packet) Len() int { return HeaderLen + len(p.Options) + len(p.Payload) }

// Marshal renders the datagram into a new buffer, computing the
// header checksum.
func (p *Packet) Marshal() ([]byte, error) { return p.MarshalTo(nil) }

// MarshalTo appends the datagram to dst, computing the header
// checksum, and returns the extended slice. dst grows only when its
// spare capacity is too small, so rendering into a reused buffer
// (buf[:0]) allocates nothing once it is large enough. On error dst is
// returned unchanged.
func (p *Packet) MarshalTo(dst []byte) ([]byte, error) {
	if len(p.Options)%4 != 0 {
		return dst, errOptions
	}
	hlen := HeaderLen + len(p.Options)
	if hlen > 60 {
		return dst, errHdrLen
	}
	total := hlen + len(p.Payload)
	if total > MaxPacket {
		return dst, fmt.Errorf("ip: datagram too large (%d)", total)
	}
	n := len(dst)
	dst = slices.Grow(dst, total)[:n+total]
	buf := dst[n:]
	buf[0] = 0x40 | byte(hlen/4)
	buf[1] = p.TOS
	binary.BigEndian.PutUint16(buf[2:], uint16(total))
	binary.BigEndian.PutUint16(buf[4:], p.ID)
	ffo := p.FragOff & 0x1FFF
	if p.DF {
		ffo |= FlagDF
	}
	if p.MF {
		ffo |= FlagMF
	}
	binary.BigEndian.PutUint16(buf[6:], ffo)
	buf[8] = p.TTL
	buf[9] = p.Proto
	// A reused buffer holds an old checksum here; it must not be summed.
	buf[10], buf[11] = 0, 0
	copy(buf[12:], p.Src[:])
	copy(buf[16:], p.Dst[:])
	copy(buf[20:], p.Options)
	binary.BigEndian.PutUint16(buf[10:], Checksum(buf[:hlen]))
	copy(buf[hlen:], p.Payload)
	return dst, nil
}

// Unmarshal parses and validates a datagram (version, lengths, header
// checksum). The returned packet's Payload and Options alias buf.
func Unmarshal(buf []byte) (*Packet, error) {
	p := &Packet{}
	if err := p.Parse(buf); err != nil {
		return nil, err
	}
	return p, nil
}

// Parse is Unmarshal into p: it validates buf and, if it holds a
// datagram, overwrites every field of p with it. p's Payload and
// Options alias buf. On error p is left unchanged.
func (p *Packet) Parse(buf []byte) error {
	if len(buf) < HeaderLen {
		return errShort
	}
	if buf[0]>>4 != 4 {
		return errVersion
	}
	hlen := int(buf[0]&0x0F) * 4
	if hlen < HeaderLen || hlen > len(buf) {
		return errHdrLen
	}
	total := int(binary.BigEndian.Uint16(buf[2:]))
	if total < hlen || total > len(buf) {
		return errShort
	}
	if Checksum(buf[:hlen]) != 0 {
		return errChecksum
	}
	ffo := binary.BigEndian.Uint16(buf[6:])
	*p = Packet{
		Header: Header{
			TOS:     buf[1],
			ID:      binary.BigEndian.Uint16(buf[4:]),
			DF:      ffo&FlagDF != 0,
			MF:      ffo&FlagMF != 0,
			FragOff: ffo & 0x1FFF,
			TTL:     buf[8],
			Proto:   buf[9],
			Src:     Addr(buf[12:16]),
			Dst:     Addr(buf[16:20]),
			Options: buf[HeaderLen:hlen],
		},
		Payload: buf[hlen:total],
	}
	return nil
}

// Clone deep-copies the packet.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Options = append([]byte(nil), p.Options...)
	q.Payload = append([]byte(nil), p.Payload...)
	return &q
}

func (p *Packet) String() string {
	frag := ""
	if p.MF || p.FragOff > 0 {
		frag = fmt.Sprintf(" frag=%d mf=%v", p.FragOff*8, p.MF)
	}
	return fmt.Sprintf("ip %s>%s proto=%d ttl=%d id=%d len=%d%s",
		p.Src, p.Dst, p.Proto, p.TTL, p.ID, len(p.Payload), frag)
}
