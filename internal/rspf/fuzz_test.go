package rspf

import (
	"bytes"
	"reflect"
	"testing"

	"packetradio/internal/ip"
)

// FuzzRSPFDecode feeds Decode arbitrary bytes, as an RSPF datagram off
// the air may carry: it must return an error or a message and never
// panic, and a message it returns must marshal back to the bytes it
// was parsed from (trailing bytes past the counted entries aside) and
// decode again unchanged.
func FuzzRSPFDecode(f *testing.F) {
	r1, r2 := ip.AddrFrom(44, 24, 0, 28), ip.AddrFrom(44, 24, 0, 5)
	for _, buf := range [][]byte{
		(&Hello{Router: r1, Seq: 7, Heard: []ip.Addr{r2}}).Marshal(),
		(&Hello{Router: r2}).Marshal(),
		(&LSA{Router: r1, Seq: 3,
			Links:    []Link{{Neighbor: r2, Cost: 10}},
			Networks: []Network{{Prefix: ip.AddrFrom(44, 0, 0, 0), Mask: ip.MaskClassA, Cost: 1}},
		}).Marshal(),
	} {
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
	}
	f.Add([]byte{Version, msgLSA, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // counts far past the end
	f.Fuzz(func(t *testing.T, buf []byte) {
		msg, err := Decode(buf)
		if err != nil {
			return
		}
		var out []byte
		switch m := msg.(type) {
		case *Hello:
			out = m.Marshal()
		case *LSA:
			out = m.Marshal()
		default:
			t.Fatalf("Decode returned %T", msg)
		}
		if !bytes.Equal(out, buf[:len(out)]) {
			t.Fatalf("Marshal(Decode(b)):\n got  %x\n want %x", out, buf[:len(out)])
		}
		again, err := Decode(out)
		if err != nil {
			t.Fatalf("Decode(Marshal(%v)): %v", msg, err)
		}
		if !reflect.DeepEqual(msg, again) {
			t.Fatalf("round trip changed the message:\n got  %+v\n want %+v", again, msg)
		}
	})
}
