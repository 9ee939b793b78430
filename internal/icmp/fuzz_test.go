package icmp

import (
	"reflect"
	"testing"

	"packetradio/internal/ip"
)

// FuzzICMPUnmarshal feeds Unmarshal arbitrary bytes, as an ICMP body
// off the air may carry: it must return an error or a message and
// never panic, and a message it returns must survive Marshal and
// Unmarshal unchanged.
func FuzzICMPUnmarshal(f *testing.F) {
	about := &ip.Packet{
		Header:  ip.Header{ID: 3, TTL: 30, Proto: ip.ProtoUDP, Src: ip.AddrFrom(44, 24, 0, 5), Dst: ip.AddrFrom(128, 95, 1, 2)},
		Payload: []byte("datagram"),
	}
	redirect := NewError(TypeRedirect, 1, about)
	redirect.Gateway = ip.AddrFrom(44, 24, 0, 28)
	for _, m := range []*Message{
		NewEcho(0x1234, 7, []byte("ping payload")),
		NewEchoReply(NewEcho(1, 2, nil)),
		NewError(TypeDestUnreachable, CodePortUnreachable, about),
		redirect,
		NewAuthAdd(&AuthPayload{TTLSeconds: 600, Amateur: ip.AddrFrom(44, 24, 0, 9), NonAmateur: ip.AddrFrom(128, 95, 1, 9), Callsign: "N7AKR", Password: "pw"}),
	} {
		b := m.Marshal()
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			return
		}
		q, err := Unmarshal(m.Marshal())
		if err != nil {
			t.Fatalf("Unmarshal(Marshal(%v)): %v", m, err)
		}
		if !reflect.DeepEqual(m, q) {
			t.Fatalf("round trip changed the message:\n got  %+v\n want %+v", q, m)
		}
	})
}
