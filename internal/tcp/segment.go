// Package tcp implements a Transmission Control Protocol faithful to
// the paper's era and sufficient for its §4.1 analysis: sliding-window
// byte-stream transfer with per-segment retransmission, a receiver
// window, the MSS option, and — the knob E3 turns — either a fixed
// retransmission timeout or the adaptive estimator ("Fortunately, many
// implementations of TCP dynamically adjust their timeout values") with
// Karn's algorithm and exponential backoff (Karn being the same Phil
// Karn whose KA9Q code the paper builds on).
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"packetradio/internal/ip"
)

// Flag bits.
const (
	FlagFIN = 0x01
	FlagSYN = 0x02
	FlagRST = 0x04
	FlagPSH = 0x08
	FlagACK = 0x10
)

// HeaderLen is the option-less header size.
const HeaderLen = 20

var (
	errShort    = errors.New("tcp: truncated segment")
	errChecksum = errors.New("tcp: bad checksum")
)

// Segment is a parsed TCP segment. MSS is nonzero when the SYN carried
// the maximum-segment-size option.
type Segment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	MSS              uint16
	Payload          []byte
}

func (s *Segment) has(f uint8) bool { return s.Flags&f != 0 }

func (s *Segment) String() string {
	fl := ""
	for _, f := range []struct {
		bit  uint8
		name string
	}{{FlagSYN, "S"}, {FlagFIN, "F"}, {FlagRST, "R"}, {FlagPSH, "P"}, {FlagACK, "."}} {
		if s.has(f.bit) {
			fl += f.name
		}
	}
	return fmt.Sprintf("tcp %d>%d [%s] seq=%d ack=%d win=%d len=%d",
		s.SrcPort, s.DstPort, fl, s.Seq, s.Ack, s.Window, len(s.Payload))
}

// Marshal renders the segment with pseudo-header checksum.
func (s *Segment) Marshal(src, dst ip.Addr) []byte {
	optLen := 0
	if s.MSS != 0 {
		optLen = 4
	}
	hlen := HeaderLen + optLen
	buf := make([]byte, hlen+len(s.Payload))
	binary.BigEndian.PutUint16(buf[0:], s.SrcPort)
	binary.BigEndian.PutUint16(buf[2:], s.DstPort)
	binary.BigEndian.PutUint32(buf[4:], s.Seq)
	binary.BigEndian.PutUint32(buf[8:], s.Ack)
	buf[12] = byte(hlen/4) << 4
	buf[13] = s.Flags
	binary.BigEndian.PutUint16(buf[14:], s.Window)
	if s.MSS != 0 {
		buf[20] = 2 // kind: MSS
		buf[21] = 4 // length
		binary.BigEndian.PutUint16(buf[22:], s.MSS)
	}
	copy(buf[hlen:], s.Payload)
	cs := ip.PseudoChecksum(src, dst, ip.ProtoTCP, buf)
	binary.BigEndian.PutUint16(buf[16:], cs)
	return buf
}

// Unmarshal parses and checksums a segment.
func Unmarshal(src, dst ip.Addr, buf []byte) (*Segment, error) {
	if len(buf) < HeaderLen {
		return nil, errShort
	}
	if ip.PseudoChecksum(src, dst, ip.ProtoTCP, buf) != 0 {
		return nil, errChecksum
	}
	hlen := int(buf[12]>>4) * 4
	if hlen < HeaderLen || hlen > len(buf) {
		return nil, errShort
	}
	s := &Segment{
		SrcPort: binary.BigEndian.Uint16(buf[0:]),
		DstPort: binary.BigEndian.Uint16(buf[2:]),
		Seq:     binary.BigEndian.Uint32(buf[4:]),
		Ack:     binary.BigEndian.Uint32(buf[8:]),
		Flags:   buf[13],
		Window:  binary.BigEndian.Uint16(buf[14:]),
		Payload: buf[hlen:],
	}
	// Scan options (only MSS is understood).
	opts := buf[HeaderLen:hlen]
	for len(opts) > 0 {
		switch opts[0] {
		case 0: // end of options
			opts = nil
		case 1: // NOP
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				opts = nil
				break
			}
			if opts[0] == 2 && opts[1] == 4 {
				s.MSS = binary.BigEndian.Uint16(opts[2:])
			}
			opts = opts[opts[1]:]
		}
	}
	return s, nil
}

// Sequence-space comparisons (RFC 793 modular arithmetic).
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
