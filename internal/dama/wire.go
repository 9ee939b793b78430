package dama

// The DAMA wire format. Every frame a member transmits is either pure
// control (POLL, NONE) or a data frame wrapped in a demand-carrying
// header; the master's own data alone travels unwrapped (it has no
// demand to report — it owns the schedule). The two magic octets make
// the classifier exact against real traffic: AX.25 address fields are
// ASCII shifted left one bit, so their octets are always even and
// never exceed 0xB4 ('Z'<<1), while magic1 is odd — no valid AX.25
// frame from the TNCs can begin with this pair.
//
//	POLL: D4 D5 'P' srcLen src dstLen dst
//	NONE: D4 D5 'N' srcLen src demandHi demandLo
//	DATA: D4 D5 'D' srcLen src demandHi demandLo flags payload...
//
// src/dst are the stations' callsign strings; demand is the sender's
// remaining queue depth after this frame (the piggybacked
// registration); flags bit0 marks the last frame of a reserved turn.

const (
	magic0 = 0xD4
	magic1 = 0xD5

	kPoll = 'P'
	kNone = 'N'
	kData = 'D'

	flagLast = 0x01
)

func appendName(b []byte, name string) []byte {
	if len(name) > 255 {
		name = name[:255]
	}
	b = append(b, byte(len(name)))
	return append(b, name...)
}

func encodePoll(src, dst string) []byte {
	b := append(make([]byte, 0, 8+len(src)+len(dst)), magic0, magic1, kPoll)
	b = appendName(b, src)
	return appendName(b, dst)
}

func encodeNone(src string) []byte {
	b := append(make([]byte, 0, 8+len(src)), magic0, magic1, kNone)
	b = appendName(b, src)
	return append(b, 0, 0)
}

func encodeData(src string, demand uint16, last bool, payload []byte) []byte {
	b := append(make([]byte, 0, dataHdrLen(src)+len(payload)), magic0, magic1, kData)
	b = appendName(b, src)
	b = append(b, byte(demand>>8), byte(demand))
	var fl byte
	if last {
		fl |= flagLast
	}
	b = append(b, fl)
	return append(b, payload...)
}

// dataHdrLen is the wrapper overhead of one data frame from src — the
// per-frame airtime cost of demand piggybacking.
func dataHdrLen(src string) int { return 3 + 1 + len(src) + 3 }

// Unwrap strips the DAMA demand header off a wrapped data frame,
// returning the inner AX.25 bytes and true; for control frames and
// anything that is not DAMA-framed it returns (nil, false). This is
// the observability seam: a capture tap or ping ledger looking at raw
// on-air bytes uses it to see the frame a slave's TNC actually queued.
// It skips the source callsign without copying it, so the taps that
// call it on every frame allocate nothing.
func Unwrap(b []byte) ([]byte, bool) {
	if len(b) < 4 || b[0] != magic0 || b[1] != magic1 || b[2] != kData {
		return nil, false
	}
	hdr := 4 + int(b[3]) + 3 // magic, kind, src, demand, flags
	if len(b) < hdr {
		return nil, false
	}
	return b[hdr:], true
}

// decode classifies a heard frame. ok is false for anything that is
// not a well-formed DAMA frame (the master's unwrapped data, foreign
// traffic, or truncation garbage — all passed through untouched).
func decode(b []byte) (kind byte, src, dst string, demand uint16, last bool, payload []byte, ok bool) {
	if len(b) < 4 || b[0] != magic0 || b[1] != magic1 {
		return 0, "", "", 0, false, nil, false
	}
	kind = b[2]
	n := int(b[3])
	rest := b[4:]
	if len(rest) < n {
		return 0, "", "", 0, false, nil, false
	}
	src, rest = string(rest[:n]), rest[n:]
	switch kind {
	case kPoll:
		if len(rest) < 1 || len(rest) < 1+int(rest[0]) {
			return 0, "", "", 0, false, nil, false
		}
		dst = string(rest[1 : 1+int(rest[0])])
		return kind, src, dst, 0, false, nil, true
	case kNone:
		if len(rest) < 2 {
			return 0, "", "", 0, false, nil, false
		}
		demand = uint16(rest[0])<<8 | uint16(rest[1])
		return kind, src, "", demand, false, nil, true
	case kData:
		if len(rest) < 3 {
			return 0, "", "", 0, false, nil, false
		}
		demand = uint16(rest[0])<<8 | uint16(rest[1])
		last = rest[2]&flagLast != 0
		return kind, src, "", demand, last, rest[3:], true
	}
	return 0, "", "", 0, false, nil, false
}
