package arp

import (
	"bytes"
	"reflect"
	"testing"

	"packetradio/internal/ip"
)

// FuzzARPUnmarshal feeds Unmarshal arbitrary bytes, as an ARP frame
// off the air or the Ethernet may carry: it must return an error or a
// packet and never panic, and a packet it returns must marshal back to
// the bytes it was parsed from and survive Unmarshal unchanged.
func FuzzARPUnmarshal(f *testing.F) {
	eth := []byte{8, 0, 0x2B, 0, 0, 1}
	ax := []byte{'N' << 1, '7' << 1, 'A' << 1, 'K' << 1, 'R' << 1, ' ' << 1, 0x60}
	for _, p := range []*Packet{
		{HType: HTypeEthernet, PType: EtherTypeIP, Op: OpRequest, SHA: eth, SPA: ip.AddrFrom(128, 95, 1, 2), THA: make([]byte, 6), TPA: ip.AddrFrom(128, 95, 1, 3)},
		{HType: HTypeAX25, PType: EtherTypeIP, Op: OpReply, SHA: ax, SPA: ip.AddrFrom(44, 24, 0, 28), THA: ax, TPA: ip.AddrFrom(44, 24, 0, 5)},
	} {
		b, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 8, 0, 0, 4, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8}) // zero-length hardware addresses
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Unmarshal(b)
		if err != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("Marshal of parsed %v: %v", p, err)
		}
		if !bytes.Equal(out, b[:len(out)]) {
			t.Fatalf("Marshal(Unmarshal(b)):\n got  %x\n want %x", out, b[:len(out)])
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
