package udp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"packetradio/internal/ip"
)

// pseudoChecksum is the construction ip.PseudoChecksum replaced, kept
// as its reference: copy the pseudo-header and the segment into one
// buffer and sum that.
func pseudoChecksum(src, dst ip.Addr, seg []byte) uint16 {
	ph := make([]byte, 12+len(seg))
	copy(ph[0:4], src[:])
	copy(ph[4:8], dst[:])
	ph[9] = ip.ProtoUDP
	binary.BigEndian.PutUint16(ph[10:], uint16(len(seg)))
	copy(ph[12:], seg)
	return ip.Checksum(ph)
}

// FuzzUDPUnmarshal feeds Unmarshal arbitrary bytes between arbitrary
// addresses: it must return an error or a datagram and never panic,
// and a datagram it returns must survive Marshal and Unmarshal
// unchanged. ip.PseudoChecksum must equal the copy-and-sum reference
// on every input.
func FuzzUDPUnmarshal(f *testing.F) {
	src, dst := ip.AddrFrom(44, 24, 0, 5), ip.AddrFrom(128, 95, 1, 2)
	for _, payload := range [][]byte{nil, []byte("query"), []byte("odd")} {
		b := Marshal(src, dst, 1234, 53, payload)
		f.Add(src.Uint32(), dst.Uint32(), b)
		f.Add(dst.Uint32(), src.Uint32(), b[:len(b)-1])
	}
	f.Add(src.Uint32(), dst.Uint32(), []byte{0, 1, 0, 2, 0, 8, 0, 0}) // checksum not in use
	f.Add(uint32(0), uint32(0), []byte{})
	f.Fuzz(func(t *testing.T, s, d uint32, b []byte) {
		src, dst := ip.AddrFromUint32(s), ip.AddrFromUint32(d)
		if got, want := ip.PseudoChecksum(src, dst, ip.ProtoUDP, b), pseudoChecksum(src, dst, b); got != want {
			t.Fatalf("PseudoChecksum = %#04x, reference %#04x", got, want)
		}
		sp, dp, payload, err := Unmarshal(src, dst, b)
		if err != nil {
			return
		}
		sp2, dp2, payload2, err := Unmarshal(src, dst, Marshal(src, dst, sp, dp, payload))
		if err != nil {
			t.Fatalf("Unmarshal(Marshal(%d>%d %x)): %v", sp, dp, payload, err)
		}
		if sp2 != sp || dp2 != dp || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip: got %d>%d %x, want %d>%d %x", sp2, dp2, payload2, sp, dp, payload)
		}
	})
}
