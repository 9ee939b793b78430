package ax25

// The AX.25 frame check sequence is the 16-bit CRC-CCITT used by HDLC
// (polynomial x^16 + x^12 + x^5 + 1, reflected, initial value 0xFFFF,
// final complement), transmitted low byte first. In the paper's system
// the KISS TNC "sends and receives data and calculates the necessary
// checksums", so the host driver never sees the FCS; internal/tnc uses
// this module on both sides of the radio.

// fcsTable[k][b] is the CRC register after byte b followed by k zero
// bytes, starting from zero: slicing-by-8 folds eight bytes per step.
var fcsTable [8][256]uint16

func init() {
	const poly = 0x8408 // reflected 0x1021
	for i := 0; i < 256; i++ {
		crc := uint16(i)
		for b := 0; b < 8; b++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
		fcsTable[0][i] = crc
	}
	for k := 1; k < len(fcsTable); k++ {
		for i := 0; i < 256; i++ {
			prev := fcsTable[k-1][i]
			fcsTable[k][i] = prev>>8 ^ fcsTable[0][byte(prev)]
		}
	}
}

// FCS computes the AX.25 frame check sequence over p. Eight bytes at
// a time, the 16-bit register shifts out completely: the first two
// bytes fold into it and every byte indexes the table for its distance
// from the end of the group.
func FCS(p []byte) uint16 {
	crc := uint16(0xFFFF)
	for ; len(p) >= 8; p = p[8:] {
		crc ^= uint16(p[0]) | uint16(p[1])<<8
		crc = fcsTable[7][byte(crc)] ^ fcsTable[6][crc>>8] ^
			fcsTable[5][p[2]] ^ fcsTable[4][p[3]] ^ fcsTable[3][p[4]] ^
			fcsTable[2][p[5]] ^ fcsTable[1][p[6]] ^ fcsTable[0][p[7]]
	}
	for _, b := range p {
		crc = crc>>8 ^ fcsTable[0][byte(crc)^b]
	}
	return ^crc
}

// AppendFCS appends the two FCS bytes (low byte first) for the frame
// contents already in p, returning the extended slice.
func AppendFCS(p []byte) []byte {
	fcs := FCS(p)
	return append(p, byte(fcs), byte(fcs>>8))
}

// CheckFCS verifies a frame whose last two bytes are its FCS, returning
// the frame body (without FCS) and whether the check passed.
func CheckFCS(p []byte) ([]byte, bool) {
	if len(p) < 2 {
		return nil, false
	}
	body := p[:len(p)-2]
	want := uint16(p[len(p)-2]) | uint16(p[len(p)-1])<<8
	return body, FCS(body) == want
}
