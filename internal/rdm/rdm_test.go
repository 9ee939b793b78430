package rdm_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/rdm"
)

// rdmPacket peeks into a marshaled IP datagram and, if it carries RDM,
// reports the packet type and sequence number so fate hooks can target
// specific transmissions.
func rdmPacket(buf []byte) (t rdm.Type, seq uint16, ok bool) {
	if len(buf) < 20 || buf[9] != ip.ProtoRDM {
		return 0, 0, false
	}
	ihl := int(buf[0]&0x0f) * 4
	if len(buf) < ihl+rdm.HeaderLen {
		return 0, 0, false
	}
	return rdm.Type(buf[ihl+4] >> 4), binary.BigEndian.Uint16(buf[ihl+6 : ihl+8]), true
}

// connect wires a listener on b (port 7) and dials from a, returning
// the client conn and, via the pointer, the server conn once the first
// message lands. Received messages append to got.
type recvLog struct {
	payloads [][]byte
	modes    []rdm.Mode
}

func (r *recvLog) on(p []byte, m rdm.Mode) {
	r.payloads = append(r.payloads, p)
	r.modes = append(r.modes, m)
}

func (r *recvLog) strings() []string {
	out := make([]string, len(r.payloads))
	for i, p := range r.payloads {
		out[i] = string(p)
	}
	return out
}

func connect(t *testing.T, p *pair, log *recvLog) (*rdm.Conn, **rdm.Conn) {
	t.Helper()
	var server *rdm.Conn
	_, err := p.bm.Listen(7, func(c *rdm.Conn) {
		server = c
		c.OnMessage = log.on
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.am.Dial(addrB, 7)
	if err != nil {
		t.Fatal(err)
	}
	return c, &server
}

func TestReliableDelivery(t *testing.T) {
	p := newPair(1, 5*time.Millisecond)
	var log recvLog
	c, _ := connect(t, p, &log)

	var delivered []uint16
	c.OnDelivered = func(seq uint16) { delivered = append(delivered, seq) }

	want := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for _, m := range want {
		if _, err := c.Send(rdm.ReliableOrdered, []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	p.run(10 * time.Second)

	if got := log.strings(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if len(delivered) != len(want) {
		t.Fatalf("OnDelivered fired %d times, want %d", len(delivered), len(want))
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after full ack", c.Pending())
	}
	if p.am.Stats.Resent != 0 {
		t.Fatalf("lossless path retransmitted %d times", p.am.Stats.Resent)
	}
	if p.bm.Stats.Delivered != uint64(len(want)) {
		t.Fatalf("receiver Delivered = %d, want %d", p.bm.Stats.Delivered, len(want))
	}
	// Acks were coalesced: 5 messages inside one AckDelay should not
	// cost 5 standalone ACK packets.
	if p.bm.Stats.AcksOut >= uint64(len(want)) {
		t.Fatalf("no ACK coalescing: %d standalone ACKs for %d messages", p.bm.Stats.AcksOut, len(want))
	}
}

func TestUnreliableDupSuppression(t *testing.T) {
	p := newPair(2, 5*time.Millisecond)
	// Duplicate every RDM data packet in flight.
	p.ap.fate = func(buf []byte) pipeFate {
		if tt, _, ok := rdmPacket(buf); ok && tt == rdm.TypeData {
			return pipeFate{dup: true}
		}
		return pipeFate{}
	}
	var log recvLog
	c, _ := connect(t, p, &log)
	for i := 0; i < 5; i++ {
		if _, err := c.Send(rdm.Unreliable, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	p.run(5 * time.Second)
	if len(log.payloads) != 5 {
		t.Fatalf("delivered %d unreliable messages, want 5 (dups must be dropped)", len(log.payloads))
	}
	if p.bm.Stats.DupDropped < 5 {
		t.Fatalf("DupDropped = %d, want >= 5", p.bm.Stats.DupDropped)
	}
}

func TestUnreliableOrderedDropsLate(t *testing.T) {
	p := newPair(3, 5*time.Millisecond)
	// Delay seq 2 so it arrives after 3 and 4.
	p.ap.fate = func(buf []byte) pipeFate {
		if tt, seq, ok := rdmPacket(buf); ok && tt == rdm.TypeData && seq == 2 {
			return pipeFate{extra: 100 * time.Millisecond}
		}
		return pipeFate{}
	}
	var log recvLog
	c, _ := connect(t, p, &log)
	for i := 0; i < 5; i++ {
		if _, err := c.Send(rdm.UnreliableOrdered, []byte{'0' + byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	p.run(5 * time.Second)
	want := []string{"0", "1", "3", "4"}
	if got := log.strings(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ordered-unreliable delivered %v, want %v (late datagram dropped)", got, want)
	}
}

func TestReliableModesUnderReordering(t *testing.T) {
	for _, tc := range []struct {
		mode rdm.Mode
		want []string
	}{
		// Unordered-reliable delivers on arrival: 0, then 2 and 3, then
		// the straggler 1. Ordered holds 2 and 3 until 1 fills the gap.
		{rdm.Reliable, []string{"0", "2", "3", "1"}},
		{rdm.ReliableOrdered, []string{"0", "1", "2", "3"}},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			p := newPair(4, 5*time.Millisecond)
			p.ap.fate = func(buf []byte) pipeFate {
				if tt, seq, ok := rdmPacket(buf); ok && tt == rdm.TypeData && seq == 1 {
					return pipeFate{extra: 100 * time.Millisecond}
				}
				return pipeFate{}
			}
			var log recvLog
			c, _ := connect(t, p, &log)
			for i := 0; i < 4; i++ {
				if _, err := c.Send(tc.mode, []byte{'0' + byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			p.run(10 * time.Second)
			if got := log.strings(); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("delivered %v, want %v", got, tc.want)
			}
			if p.bm.Stats.Delivered != 4 {
				t.Fatalf("Delivered = %d, want 4", p.bm.Stats.Delivered)
			}
		})
	}
}

// TestEmptyMessageDelivered: an empty message is a message in every
// mode, delivered in its place in the stream; an empty ordered one
// must not read as the tombstone of a message already delivered.
func TestEmptyMessageDelivered(t *testing.T) {
	for _, mode := range []rdm.Mode{rdm.Unreliable, rdm.UnreliableOrdered, rdm.Reliable, rdm.ReliableOrdered} {
		t.Run(mode.String(), func(t *testing.T) {
			p := newPair(6, 5*time.Millisecond)
			var log recvLog
			c, _ := connect(t, p, &log)
			for _, m := range []string{"", "x"} {
				if _, err := c.Send(mode, []byte(m)); err != nil {
					t.Fatal(err)
				}
			}
			p.run(10 * time.Second)
			if got, want := log.strings(), []string{"", "x"}; fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
				t.Fatalf("delivered %q, want %q", got, want)
			}
			for i, m := range log.modes {
				if m != mode {
					t.Fatalf("message %d delivered as %v, want %v", i, m, mode)
				}
			}
			if c.Pending() != 0 || p.bm.Stats.Delivered != 2 {
				t.Fatalf("Pending = %d, Delivered = %d; want 0 and 2", c.Pending(), p.bm.Stats.Delivered)
			}
		})
	}
}

func TestNakRepairsLossBeforeRTO(t *testing.T) {
	p := newPair(5, 5*time.Millisecond)
	// Lose the first transmission of seq 1 only; the gap behind seqs 2
	// and 3 should draw a NAK well before the initial RTO.
	dropped := false
	p.ap.fate = func(buf []byte) pipeFate {
		if tt, seq, ok := rdmPacket(buf); ok && tt == rdm.TypeData && seq == 1 && !dropped {
			dropped = true
			return pipeFate{drop: true}
		}
		return pipeFate{}
	}
	var log recvLog
	c, _ := connect(t, p, &log)
	for i := 0; i < 4; i++ {
		if _, err := c.Send(rdm.ReliableOrdered, []byte{'0' + byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// One NakDelay plus a round trip is ample; stop short of the
	// initial RTO so a pass proves the NAK path did the work.
	if rdm.NakDelay+time.Second >= rdm.InitialRTO {
		t.Fatalf("NakDelay %v leaves no room before the %v initial RTO", rdm.NakDelay, rdm.InitialRTO)
	}
	p.run(rdm.NakDelay + time.Second)
	want := []string{"0", "1", "2", "3"}
	if got := log.strings(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if p.bm.Stats.NaksOut == 0 || p.am.Stats.NaksIn == 0 {
		t.Fatalf("loss repaired without NAKs (NaksOut=%d NaksIn=%d)", p.bm.Stats.NaksOut, p.am.Stats.NaksIn)
	}
	if p.am.Stats.Resent == 0 {
		t.Fatal("no retransmission recorded")
	}
}

func TestRTORecoversTotalBlackout(t *testing.T) {
	p := newPair(6, 5*time.Millisecond)
	// Black out the forward path for the first 4 s: no duplicate ACK
	// tricks, no NAKs (the receiver never saw anything) — only the
	// sender's RTO can recover.
	blackout := true
	p.sched.After(4*time.Second, func() { blackout = false })
	p.ap.fate = func(buf []byte) pipeFate {
		return pipeFate{drop: blackout}
	}
	var log recvLog
	c, _ := connect(t, p, &log)
	if _, err := c.Send(rdm.Reliable, []byte("persist")); err != nil {
		t.Fatal(err)
	}
	p.run(30 * time.Second)
	if got := log.strings(); len(got) != 1 || got[0] != "persist" {
		t.Fatalf("delivered %v, want [persist]", got)
	}
	if p.am.Stats.Resent == 0 {
		t.Fatal("blackout recovery must have retransmitted")
	}
	if c.Err() != nil {
		t.Fatalf("connection failed: %v", c.Err())
	}
}

func TestRexmitExhaustionFailsConn(t *testing.T) {
	p := newPair(7, 5*time.Millisecond)
	p.ap.fate = func(buf []byte) pipeFate { return pipeFate{drop: true} }
	var log recvLog
	c, _ := connect(t, p, &log)
	var closeErr error
	closed := false
	c.OnClose = func(err error) { closed, closeErr = true, err }
	if _, err := c.Send(rdm.Reliable, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// Each timeout is at most MaxRTO plus the one in-flight message's
	// byte term; the connection fails at the timeout after the last
	// retransmission.
	p.run((rdm.MaxRexmits + 1) * (rdm.MaxRTO + time.Second))
	if !closed || !errors.Is(closeErr, rdm.ErrTimeout) {
		t.Fatalf("closed=%v err=%v, want ErrTimeout close", closed, closeErr)
	}
	if p.am.Stats.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", p.am.Stats.Failed)
	}
	if p.am.Stats.Resent != rdm.MaxRexmits {
		t.Fatalf("Resent = %d, want MaxRexmits = %d before failing", p.am.Stats.Resent, rdm.MaxRexmits)
	}
	// The latched error surfaces on later sends.
	if _, err := c.Send(rdm.Reliable, []byte("x")); !errors.Is(err, rdm.ErrTimeout) {
		t.Fatalf("Send after failure = %v, want ErrTimeout", err)
	}
}

func TestBackpressureAndResume(t *testing.T) {
	p := newPair(8, 5*time.Millisecond)
	var log recvLog
	c, _ := connect(t, p, &log)

	// A full window in flight, SndBuf queued behind it, and more.
	payload := bytes.Repeat([]byte("x"), 512)
	const total = rdm.Window + rdm.SndBuf/512 + 8
	sent, blocked := 0, 0
	var pump func()
	pump = func() {
		for sent < total {
			if _, err := c.Send(rdm.Reliable, payload); err != nil {
				if errors.Is(err, rdm.ErrWouldBlock) {
					blocked++
					return
				}
				t.Fatal(err)
			}
			sent++
		}
	}
	c.OnWritable = pump
	pump()
	if blocked == 0 {
		t.Fatalf("window %d + %d-byte SndBuf accepted %dx512 B without blocking", rdm.Window, rdm.SndBuf, total)
	}
	if sent != rdm.Window+rdm.SndBuf/512 {
		t.Fatalf("blocked after %d sends, want a full window plus SndBuf (%d)", sent, rdm.Window+rdm.SndBuf/512)
	}
	p.run(2 * time.Minute)
	if sent != total || len(log.payloads) != total {
		t.Fatalf("sent %d delivered %d, want %d", sent, len(log.payloads), total)
	}
}

func TestCloseSendsByeAfterDrain(t *testing.T) {
	p := newPair(9, 5*time.Millisecond)
	var log recvLog
	c, server := connect(t, p, &log)
	var srvErr error
	srvClosed := false
	if _, err := c.Send(rdm.Reliable, []byte("last words")); err != nil {
		t.Fatal(err)
	}
	// Close with the message still unacked: the Bye must wait for the
	// ack so the peer never sees a teardown racing the data.
	c.Close()
	if _, err := c.Send(rdm.Reliable, []byte("too late")); !errors.Is(err, rdm.ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	p.sched.After(50*time.Millisecond, func() {
		if *server != nil {
			(*server).OnClose = func(err error) { srvClosed, srvErr = true, err }
		}
	})
	p.run(10 * time.Second)
	if got := log.strings(); len(got) != 1 || got[0] != "last words" {
		t.Fatalf("delivered %v, want the pre-close message", got)
	}
	if !srvClosed || srvErr != nil {
		t.Fatalf("server close: fired=%v err=%v, want orderly nil-error close", srvClosed, srvErr)
	}
	if !c.Closed() {
		t.Fatal("client not closed")
	}
}

func TestStaleReap(t *testing.T) {
	p := newPair(10, 5*time.Millisecond)
	var log recvLog
	c, _ := connect(t, p, &log)
	var closeErr error
	closed := false
	c.OnClose = func(err error) { closed, closeErr = true, err }
	if _, err := c.Send(rdm.Reliable, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	// Quiet, but not for StaleAfter yet: nothing is reaped.
	p.run(rdm.StaleAfter - rdm.SweepEvery)
	if closed || p.am.Stats.StaleReaped != 0 || p.bm.Stats.StaleReaped != 0 {
		t.Fatalf("reaped before StaleAfter: closed=%v err=%v", closed, closeErr)
	}
	p.run(3 * rdm.SweepEvery)
	if !errors.Is(closeErr, rdm.ErrStale) {
		t.Fatalf("close err = %v, want ErrStale", closeErr)
	}
	if p.am.Stats.StaleReaped == 0 || p.bm.Stats.StaleReaped == 0 {
		t.Fatalf("StaleReaped a=%d b=%d, want both nonzero", p.am.Stats.StaleReaped, p.bm.Stats.StaleReaped)
	}
	// A reaped connection must not wedge future traffic: a fresh dial
	// to the same port works.
	c2, err := p.am.Dial(addrB, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Send(rdm.Reliable, []byte("again")); err != nil {
		t.Fatal(err)
	}
	p.run(10 * time.Second)
	if got := log.strings(); len(got) != 2 || got[1] != "again" {
		t.Fatalf("delivered %v, want ping then again", got)
	}
}

func TestRTOAdaptsToMeasuredRTT(t *testing.T) {
	const rtt = 500 * time.Millisecond
	p := newPair(11, rtt/2)
	var log recvLog
	c, _ := connect(t, p, &log)
	if c.SRTT() != 0 {
		t.Fatal("SRTT nonzero before any sample")
	}
	// One message per AckDelay and more, so each is acknowledged on
	// its own: a sample is the round trip plus the receiver's delayed
	// ACK, the delay every radio sample carries too.
	gap := rdm.AckDelay + 4*time.Second
	for i := 0; i < 6; i++ {
		at := time.Duration(i) * gap
		p.sched.After(at, func() { c.Send(rdm.Reliable, []byte("sample")) })
	}
	p.run(6*gap + 10*time.Second)
	// SRTT must have locked on to the round trip plus the delayed ack,
	// and RTO must respect the clamp.
	want := rtt + rdm.AckDelay
	if c.SRTT() < want-600*time.Millisecond || c.SRTT() > want+time.Second {
		t.Fatalf("SRTT = %v, want ~%v for a %v RTT with %v delayed acks", c.SRTT(), want, rtt, rdm.AckDelay)
	}
	if c.RTO() < rdm.MinRTO || c.RTO() > rdm.MaxRTO {
		t.Fatalf("RTO = %v outside [%v, %v]", c.RTO(), rdm.MinRTO, rdm.MaxRTO)
	}
	if p.am.Stats.Resent != 0 {
		t.Fatalf("clean periodic traffic retransmitted %d times", p.am.Stats.Resent)
	}
}

func TestMessageTooBig(t *testing.T) {
	p := newPair(12, time.Millisecond)
	var log recvLog
	c, _ := connect(t, p, &log)
	if _, err := c.Send(rdm.Reliable, make([]byte, rdm.MaxMessage+1)); !errors.Is(err, rdm.ErrTooBig) {
		t.Fatalf("oversized Send = %v, want ErrTooBig", err)
	}
	if _, err := c.Send(rdm.Reliable, make([]byte, rdm.MaxMessage)); err != nil {
		t.Fatalf("Send of exactly MaxMessage = %v, want accepted", err)
	}
	p.run(time.Minute)
	if len(log.payloads) != 1 || len(log.payloads[0]) != rdm.MaxMessage {
		t.Fatalf("delivered %d messages, want the one %d-byte message", len(log.payloads), rdm.MaxMessage)
	}
}

func TestPortInUseAndNoPort(t *testing.T) {
	p := newPair(13, time.Millisecond)
	if _, err := p.bm.Listen(7, func(*rdm.Conn) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.bm.Listen(7, func(*rdm.Conn) {}); !errors.Is(err, rdm.ErrPortInUse) {
		t.Fatalf("second Listen = %v, want ErrPortInUse", err)
	}
	// Data to an unbound port is counted and answered with ICMP.
	c, err := p.am.Dial(addrB, 9999)
	if err != nil {
		t.Fatal(err)
	}
	c.Send(rdm.Unreliable, []byte("anyone home"))
	p.run(time.Second)
	if p.bm.Stats.NoPort != 1 {
		t.Fatalf("NoPort = %d, want 1", p.bm.Stats.NoPort)
	}
}

func TestWireRoundTrip(t *testing.T) {
	src, dst := addrA, addrB
	for _, h := range []rdm.Header{
		{SrcPort: 1024, DstPort: 7, Type: rdm.TypeData, Mode: rdm.ReliableOrdered, Seq: 42, Ack: 41, Sack: 0xbeef},
		{SrcPort: 7, DstPort: 1024, Type: rdm.TypeAck, Mode: 0, Seq: 0, Ack: 43},
		{SrcPort: 5, DstPort: 6, Type: rdm.TypeNak, Seq: 9},
		{SrcPort: 5, DstPort: 6, Type: rdm.TypeBye},
	} {
		payload := []byte("the quick brown fox")
		seg := rdm.Marshal(src, dst, h, payload)
		got, gotPayload, err := rdm.Unmarshal(src, dst, seg)
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if got != h || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("round trip %+v -> %+v", h, got)
		}
		// Any single flipped bit must fail the checksum.
		seg[len(seg)/2] ^= 0x10
		if _, _, err := rdm.Unmarshal(src, dst, seg); err == nil {
			t.Fatalf("%v: corrupted segment passed checksum", h)
		}
	}
	if _, _, err := rdm.Unmarshal(src, dst, []byte{1, 2, 3}); err == nil {
		t.Fatal("runt segment accepted")
	}
}
