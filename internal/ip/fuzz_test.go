package ip

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// FuzzIPUnmarshal feeds Unmarshal arbitrary bytes, as a datagram off
// the air may carry: it must return an error or a packet and never
// panic, and a packet it returns must survive Marshal and Unmarshal
// unchanged. The reuse forms must agree with the allocating ones:
// Parse into a packet holding another datagram's fields gives what
// Unmarshal gives, errors included, and MarshalTo into a reused buffer
// (prior's bytes, with prior's capacity) appends what Marshal renders.
func FuzzIPUnmarshal(f *testing.F) {
	src, dst := AddrFrom(44, 24, 0, 28), AddrFrom(128, 95, 1, 2)
	junk := bytes.Repeat([]byte{0x5A}, 128) // not 0xFF: one's-complement zero hides a stale checksum
	for _, p := range []*Packet{
		{Header: Header{ID: 7, TTL: DefaultTTL, Proto: ProtoICMP, Src: src, Dst: dst}, Payload: []byte("echo payload")},
		{Header: Header{ID: 9, MF: true, FragOff: 29, TTL: 1, Proto: ProtoUDP, Src: src, Dst: dst, Options: []byte{1, 1, 1, 0}}},
		{Header: Header{TOS: 0x10, DF: true, TTL: 255, Proto: ProtoTCP, Src: dst, Dst: src}, Payload: make([]byte, 40)},
	} {
		b, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, junk)
		f.Add(b[:len(b)-1], b)
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0x4F, 0, 0, 20}, junk[:8])
	f.Fuzz(func(t *testing.T, b, prior []byte) {
		p, err := Unmarshal(b)

		dirty := Packet{
			Header:  Header{TOS: 0xFF, ID: 0xFFFF, DF: true, MF: true, FragOff: 0x1FFF, TTL: 0xFF, Proto: 0xFF, Src: Limited, Dst: Limited, Options: prior},
			Payload: prior,
		}
		before := dirty
		if perr := dirty.Parse(b); fmt.Sprint(perr) != fmt.Sprint(err) {
			t.Fatalf("Parse error %v, Unmarshal error %v", perr, err)
		}
		if err != nil {
			if !reflect.DeepEqual(dirty, before) {
				t.Fatalf("failed Parse changed the packet:\n got  %+v\n want %+v", dirty, before)
			}
			return
		}
		if !reflect.DeepEqual(&dirty, p) {
			t.Fatalf("Parse into a used packet differs from Unmarshal:\n got  %+v\n want %+v", dirty, p)
		}

		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("Marshal of parsed %v: %v", p, err)
		}
		q, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("Unmarshal(Marshal(%v)): %v", p, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the packet:\n got  %+v\n want %+v", q, p)
		}

		reused := make([]byte, len(prior))
		copy(reused, prior)
		keep := len(prior) / 8
		got, err := p.MarshalTo(reused[:keep])
		if err != nil {
			t.Fatalf("MarshalTo of parsed %v: %v", p, err)
		}
		if !bytes.Equal(got[:keep], prior[:keep]) || !bytes.Equal(got[keep:], out) {
			t.Fatalf("MarshalTo into a reused buffer:\n got  %x\n want %x then %x", got, prior[:keep], out)
		}
	})
}

// sumWords is the word-at-a-time sum that sum replaced: big-endian
// 16-bit words, an odd last byte padded with a zero.
func sumWords(acc uint32, p []byte) uint32 {
	for len(p) >= 2 {
		acc += uint32(p[0])<<8 | uint32(p[1])
		p = p[2:]
	}
	if len(p) == 1 {
		acc += uint32(p[0]) << 8
	}
	return acc
}

// FuzzChecksum holds the 8-bytes-a-step sum to the word-at-a-time one:
// folded, they must agree on every length and every starting offset,
// odd ones included, from any running sum, and so must a sum taken in
// two pieces split at an even offset.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint8(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint32(0xFFFFFFFF), uint8(3))
	f.Add(bytes.Repeat([]byte{0x12, 0x34, 0x56}, 40), uint32(0x1FFFE), uint8(9))
	f.Fuzz(func(t *testing.T, p []byte, acc uint32, split uint8) {
		acc &= 0x00FFFFFF // a running sum of a few hundred words, as PseudoChecksum passes on
		for k := 0; k < 8 && k <= len(p); k++ {
			q := p[k:]
			if got, want := fold(sum(acc, q)), fold(sumWords(acc, q)); got != want {
				t.Fatalf("fold(sum(%#x, % x)) = %#04x, word-at-a-time %#04x", acc, q, got, want)
			}
			if s := int(split) &^ 1; s <= len(q) {
				if got, want := fold(sum(sum(acc, q[:s]), q[s:])), fold(sumWords(acc, q)); got != want {
					t.Fatalf("split at %d: %#04x, want %#04x", s, got, want)
				}
			}
		}
	})
}
