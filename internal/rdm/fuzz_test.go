package rdm_test

import (
	"bytes"
	"testing"
	"time"

	"packetradio/internal/rdm"
)

// FuzzRDM has two legs. The first throws arbitrary bytes at the
// decoder: Unmarshal must never panic, and anything it accepts must
// survive a Marshal/Unmarshal round trip. The second uses the fuzz
// input as a fate schedule for a live connection — per-packet drop,
// duplicate and delay decisions plus a random message mix — and checks
// the transport's two load-bearing invariants under churn:
//
//  1. no message is ever delivered twice (any mode), and
//  2. the retransmission machinery never wedges: by the end of a long
//     quiet period every reliable message is either acknowledged and
//     delivered exactly once, or the connection has failed with an
//     error.
func FuzzRDM(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0x03, 0x51, 0x00, 0x1c})
	f.Add(bytes.Repeat([]byte{0x00, 0x01, 0x02, 0x03, 0x40, 0x85, 0xc6, 0x17}, 8))
	f.Add(rdm.Marshal(addrA, addrB, rdm.Header{SrcPort: 1024, DstPort: 7, Type: rdm.TypeData, Mode: rdm.ReliableOrdered, Seq: 1, Ack: 2, Sack: 4}, []byte("hi")))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Leg 1: decoder hardening.
		if h, payload, err := rdm.Unmarshal(addrA, addrB, data); err == nil {
			seg := rdm.Marshal(addrA, addrB, h, payload)
			h2, p2, err2 := rdm.Unmarshal(addrA, addrB, seg)
			if err2 != nil {
				t.Fatalf("re-encoded accepted packet rejected: %v", err2)
			}
			if h2 != h || !bytes.Equal(p2, payload) {
				t.Fatalf("round trip changed packet: %+v -> %+v", h, h2)
			}
		}
		if len(data) == 0 {
			return
		}

		// Leg 2: loss/reorder/dup churn against a live pair.
		idx := 0
		next := func() byte {
			b := data[idx%len(data)]
			idx++
			return b
		}
		p := newPair(int64(len(data)), 2*time.Millisecond)
		fate := func(buf []byte) pipeFate {
			b := next()
			var pf pipeFate
			switch b & 3 {
			case 0:
				pf.drop = true
			case 1:
				pf.dup = true
			}
			pf.extra = time.Duration(b>>4) * 7 * time.Millisecond
			return pf
		}
		p.ap.fate, p.bp.fate = fate, fate

		deliveries := map[uint16]int{}
		var server *rdm.Conn
		if _, err := p.bm.Listen(7, func(c *rdm.Conn) {
			server = c
			c.OnMessage = func(pl []byte, mode rdm.Mode) {
				if len(pl) < 2 {
					t.Fatalf("runt delivery: %x", pl)
				}
				deliveries[uint16(pl[0])<<8|uint16(pl[1])]++
			}
		}); err != nil {
			t.Fatal(err)
		}
		_ = server
		c, err := p.am.Dial(addrB, 7)
		if err != nil {
			t.Fatal(err)
		}

		// Up to 40 messages of up to 401 bytes: enough to fill the
		// window and the send buffer behind it.
		const maxMsgs, maxSize = 40, 401
		n := int(next())%maxMsgs + 1
		reliable := map[uint16]bool{}
		var id uint16
		for i := 0; i < n; i++ {
			mode := rdm.Mode(next() & 3)
			at := time.Duration(next()) * 5 * time.Millisecond
			size := int(next())%(maxSize-1) + 2
			msgID := id
			id++
			p.sched.After(at, func() {
				payload := make([]byte, size)
				payload[0], payload[1] = byte(msgID>>8), byte(msgID)
				if _, err := c.Send(mode, payload); err == nil && mode.IsReliable() {
					reliable[msgID] = true
				}
			})
		}
		// Long quiet tail: every retransmission budget is spent by the
		// end of this. Worst case is go-back-one fully serialized: n
		// messages x MaxRexmits+1 waits of at most MaxRTO plus the
		// in-flight byte scaling — after which each message is either
		// acknowledged or has failed the connection.
		wait := rdm.MaxRTO + time.Duration(n*maxSize)*rdm.ByteTime
		p.run(time.Duration(n*(rdm.MaxRexmits+1)) * wait)

		for mid, count := range deliveries {
			if count > 1 {
				t.Fatalf("message %d delivered %d times", mid, count)
			}
		}
		if c.Err() == nil {
			if c.Pending() != 0 {
				t.Fatalf("retransmitter wedged: %d reliable messages pending, no error", c.Pending())
			}
			for mid := range reliable {
				if deliveries[mid] != 1 {
					t.Fatalf("reliable message %d acked but delivered %d times", mid, deliveries[mid])
				}
			}
		}
	})
}
