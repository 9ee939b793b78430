package icmp

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"packetradio/internal/ip"
)

// FuzzICMPUnmarshal feeds Unmarshal arbitrary bytes, as an ICMP body
// off the air may carry: it must return an error or a message and
// never panic, and a message it returns must survive Marshal and
// Unmarshal unchanged. The reuse forms must agree with the allocating
// ones: Parse into a message holding another message's fields gives
// what Unmarshal gives, errors included, and MarshalTo into a reused
// buffer (prior's bytes, with prior's capacity) appends what Marshal
// renders.
func FuzzICMPUnmarshal(f *testing.F) {
	about := &ip.Packet{
		Header:  ip.Header{ID: 3, TTL: 30, Proto: ip.ProtoUDP, Src: ip.AddrFrom(44, 24, 0, 5), Dst: ip.AddrFrom(128, 95, 1, 2)},
		Payload: []byte("datagram"),
	}
	redirect := NewError(TypeRedirect, 1, about)
	redirect.Gateway = ip.AddrFrom(44, 24, 0, 28)
	junk := bytes.Repeat([]byte{0x5A}, 128) // not 0xFF: one's-complement zero hides a stale checksum
	for _, m := range []*Message{
		NewEcho(0x1234, 7, []byte("ping payload")),
		NewEchoReply(NewEcho(1, 2, nil)),
		NewError(TypeDestUnreachable, CodePortUnreachable, about),
		redirect,
		NewAuthAdd(&AuthPayload{TTLSeconds: 600, Amateur: ip.AddrFrom(44, 24, 0, 9), NonAmateur: ip.AddrFrom(128, 95, 1, 9), Callsign: "N7AKR", Password: "pw"}),
	} {
		b := m.Marshal()
		f.Add(b, junk)
		f.Add(b[:len(b)-1], b)
	}
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, b, prior []byte) {
		m, err := Unmarshal(b)

		dirty := Message{Type: 0xFF, Code: 0xFF, ID: 0xFFFF, Seq: 0xFFFF, Gateway: ip.Limited, Body: prior}
		before := dirty
		if perr := dirty.Parse(b); fmt.Sprint(perr) != fmt.Sprint(err) {
			t.Fatalf("Parse error %v, Unmarshal error %v", perr, err)
		}
		if err != nil {
			if !reflect.DeepEqual(dirty, before) {
				t.Fatalf("failed Parse changed the message:\n got  %+v\n want %+v", dirty, before)
			}
			return
		}
		if !reflect.DeepEqual(&dirty, m) {
			t.Fatalf("Parse into a used message differs from Unmarshal:\n got  %+v\n want %+v", dirty, m)
		}

		out := m.Marshal()
		q, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("Unmarshal(Marshal(%v)): %v", m, err)
		}
		if !reflect.DeepEqual(m, q) {
			t.Fatalf("round trip changed the message:\n got  %+v\n want %+v", q, m)
		}

		reused := make([]byte, len(prior))
		copy(reused, prior)
		keep := len(prior) / 8
		got := m.MarshalTo(reused[:keep])
		if !bytes.Equal(got[:keep], prior[:keep]) || !bytes.Equal(got[keep:], out) {
			t.Fatalf("MarshalTo into a reused buffer:\n got  %x\n want %x then %x", got, prior[:keep], out)
		}
	})
}

// FuzzUnmarshalAuth feeds UnmarshalAuth arbitrary bytes, as the body
// of a §4.3 gateway-authorization message off the air or the Ethernet
// may carry: it must return an error or a payload and never panic,
// and a payload it returns must re-marshal to exactly the body's
// first 32 bytes (the fixed layout; bytes past it are ignored, and
// the callsign and password keep every byte but trailing NUL padding).
func FuzzUnmarshalAuth(f *testing.F) {
	full := (&AuthPayload{TTLSeconds: 600, Amateur: ip.AddrFrom(44, 24, 0, 9), NonAmateur: ip.AddrFrom(128, 95, 1, 9), Callsign: "N7AKR", Password: "pw"}).Marshal()
	f.Add(full)
	f.Add(full[:len(full)-1])
	f.Add(append(append([]byte(nil), full...), 0xFF, 0x00))
	f.Add(bytes.Repeat([]byte{0xFF}, 12+CallsignLen+PasswordLen))
	f.Add(append(make([]byte, 12), "A\x00B\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00C"...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		a, err := UnmarshalAuth(body)
		if err != nil {
			return
		}
		n := 12 + CallsignLen + PasswordLen
		if out := a.Marshal(); !bytes.Equal(out, body[:n]) {
			t.Fatalf("Marshal(UnmarshalAuth(%x)) = %x, want the first %d bytes", body, out, n)
		}
	})
}
