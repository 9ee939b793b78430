package ip

import (
	"reflect"
	"testing"
)

// FuzzIPUnmarshal feeds Unmarshal arbitrary bytes, as a datagram off
// the air may carry: it must return an error or a packet and never
// panic, and a packet it returns must survive Marshal and Unmarshal
// unchanged.
func FuzzIPUnmarshal(f *testing.F) {
	src, dst := AddrFrom(44, 24, 0, 28), AddrFrom(128, 95, 1, 2)
	for _, p := range []*Packet{
		{Header: Header{ID: 7, TTL: DefaultTTL, Proto: ProtoICMP, Src: src, Dst: dst}, Payload: []byte("echo payload")},
		{Header: Header{ID: 9, MF: true, FragOff: 29, TTL: 1, Proto: ProtoUDP, Src: src, Dst: dst, Options: []byte{1, 1, 1, 0}}},
		{Header: Header{TOS: 0x10, DF: true, TTL: 255, Proto: ProtoTCP, Src: dst, Dst: src}, Payload: make([]byte, 40)},
	} {
		b, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0x4F, 0, 0, 20})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Unmarshal(b)
		if err != nil {
			return
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
	})
}
