package tcp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"packetradio/internal/ip"
)

// pseudoChecksum is the construction ip.PseudoChecksum replaced, kept
// as its reference: copy the pseudo-header and the segment into one
// buffer and sum that.
func pseudoChecksum(src, dst ip.Addr, seg []byte) uint16 {
	ph := make([]byte, 12+len(seg))
	copy(ph[0:4], src[:])
	copy(ph[4:8], dst[:])
	ph[9] = ip.ProtoTCP
	binary.BigEndian.PutUint16(ph[10:], uint16(len(seg)))
	copy(ph[12:], seg)
	return ip.Checksum(ph)
}

// FuzzTCPUnmarshal feeds Unmarshal arbitrary bytes between arbitrary
// addresses: it must return an error or a segment and never panic, and
// a segment it returns must survive Marshal and Unmarshal unchanged.
// ip.PseudoChecksum must equal the copy-and-sum reference on every
// input.
func FuzzTCPUnmarshal(f *testing.F) {
	src, dst := ip.AddrFrom(44, 24, 0, 5), ip.AddrFrom(128, 95, 1, 2)
	for _, seg := range []*Segment{
		{SrcPort: 1025, DstPort: 23, Seq: 1, Flags: FlagSYN, Window: 4096, MSS: 216},
		{SrcPort: 23, DstPort: 1025, Seq: 0xFFFFFFF0, Ack: 2, Flags: FlagACK | FlagPSH, Window: 512, Payload: []byte("login: ")},
		{SrcPort: 23, DstPort: 1025, Flags: FlagRST},
	} {
		b := seg.Marshal(src, dst)
		f.Add(src.Uint32(), dst.Uint32(), b)
		f.Add(dst.Uint32(), src.Uint32(), b[:len(b)-1])
	}
	f.Add(uint32(0), uint32(0), []byte{})
	f.Fuzz(func(t *testing.T, s, d uint32, b []byte) {
		src, dst := ip.AddrFromUint32(s), ip.AddrFromUint32(d)
		if got, want := ip.PseudoChecksum(src, dst, ip.ProtoTCP, b), pseudoChecksum(src, dst, b); got != want {
			t.Fatalf("PseudoChecksum = %#04x, reference %#04x", got, want)
		}
		seg, err := Unmarshal(src, dst, b)
		if err != nil {
			return
		}
		q, err := Unmarshal(src, dst, seg.Marshal(src, dst))
		if err != nil {
			t.Fatalf("Unmarshal(Marshal(%v)): %v", seg, err)
		}
		if !reflect.DeepEqual(seg, q) {
			t.Fatalf("round trip changed the segment:\n got  %+v\n want %+v", q, seg)
		}
	})
}

// Property: under random loss, duplication and reordering, the TCP
// stream is delivered exactly, in order, or the connection reports a
// timeout — never silent corruption. Exercised across seeds, loss
// rates and both RTO policies.
func TestTCPStreamIntegrityUnderChaos(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, mode := range []RTOMode{RTOAdaptive, RTOFixed} {
			seed, mode := seed, mode
			name := fmt.Sprintf("seed%d_mode%d", seed, mode)
			t.Run(name, func(t *testing.T) {
				p := newPair(t, 20*time.Millisecond)
				p.sched.Rand().Int63n(int64(seed) + 1) // perturb the stream per subtest
				cfg := Config{Mode: mode, MaxRetries: 60}
				p.ta.DefaultConfig = cfg
				p.tb.DefaultConfig = cfg

				rng := p.sched.Rand()
				chaos := func(pkt *ip.Packet) bool {
					if pkt.Proto != ip.ProtoTCP {
						return false
					}
					switch rng.Intn(10) {
					case 0: // drop (10%)
						return true
					case 1: // duplicate (10%)
						buf, err := pkt.Marshal()
						if err == nil {
							p.sched.After(5*time.Millisecond, func() { p.b.Input(buf, "pipe0") })
						}
						return false
					case 2: // delay/reorder (10%)
						buf, err := pkt.Marshal()
						if err == nil {
							p.sched.After(300*time.Millisecond, func() { p.b.Input(buf, "pipe0") })
						}
						return true
					}
					return false
				}
				p.ifA.drop = chaos

				var srv sink
				p.tb.Listen(23, srv.accept)
				want := make([]byte, 20000)
				rng.Read(want)
				c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
				c.OnConnect = func() { c.Send(want) }
				var clientErr error
				gotErr := false
				c.OnClose = func(err error) { clientErr = err; gotErr = true }

				p.sched.RunFor(2 * time.Hour)
				got := srv.buf.Bytes()
				if gotErr && clientErr != nil {
					// A reported failure is acceptable under chaos, but
					// the delivered prefix must still be clean.
					if !bytes.HasPrefix(want, got) {
						t.Fatalf("corrupt prefix after %v (%d bytes)", clientErr, len(got))
					}
					return
				}
				if !bytes.Equal(got, want) {
					i := 0
					for i < len(got) && i < len(want) && got[i] == want[i] {
						i++
					}
					t.Fatalf("stream corrupted at byte %d (got %d/%d bytes)", i, len(got), len(want))
				}
			})
		}
	}
}

// Property: simultaneous open (both sides dial each other) converges
// to one connection without corruption.
func TestTCPSimultaneousOpen(t *testing.T) {
	p := newPair(t, 10*time.Millisecond)
	// Force the same port pair from both directions by dialing and
	// then cross-wiring: a dials b's listener while b dials a's.
	var aBuf, bBuf bytes.Buffer
	p.ta.Listen(100, func(c *Conn) { c.OnData = func(x []byte) { aBuf.Write(x) } })
	p.tb.Listen(200, func(c *Conn) { c.OnData = func(x []byte) { bBuf.Write(x) } })
	c1 := p.ta.Dial(ip.MustAddr("10.0.0.2"), 200)
	c2 := p.tb.Dial(ip.MustAddr("10.0.0.1"), 100)
	c1.OnConnect = func() { c1.Send([]byte("from a")) }
	c2.OnConnect = func() { c2.Send([]byte("from b")) }
	p.sched.RunFor(time.Minute)
	if aBuf.String() != "from b" || bBuf.String() != "from a" {
		t.Fatalf("cross connections: a got %q, b got %q", aBuf.String(), bBuf.String())
	}
}
