package tcp

import (
	"bytes"
	"testing"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/ipstack"
	"packetradio/internal/netif"
	"packetradio/internal/sim"
)

// pipeIf is a point-to-point test interface with settable one-way
// delay and a drop hook, so retransmission behaviour is exactly
// controllable.
type pipeIf struct {
	name  string
	mtu   int
	sched *sim.Scheduler
	peer  *ipstack.Stack
	delay time.Duration
	drop  func(pkt *ip.Packet) bool
	stats netif.Stats
	sent  uint64
}

func (p *pipeIf) Name() string        { return p.name }
func (p *pipeIf) MTU() int            { return p.mtu }
func (p *pipeIf) Up() bool            { return true }
func (p *pipeIf) Init() error         { return nil }
func (p *pipeIf) Stats() *netif.Stats { return &p.stats }
func (p *pipeIf) Output(pkt *ip.Packet, _ ip.Addr) error {
	p.sent++
	if p.drop != nil && p.drop(pkt) {
		return nil
	}
	buf, err := pkt.Marshal()
	if err != nil {
		return err
	}
	p.sched.After(p.delay, func() { p.peer.Input(buf, "pipe0") })
	return nil
}

// pair is two connected hosts with TCP layers.
type pair struct {
	sched    *sim.Scheduler
	a, b     *ipstack.Stack
	ta, tb   *Proto
	ifA, ifB *pipeIf
}

func newPair(t *testing.T, delay time.Duration) *pair {
	t.Helper()
	s := sim.NewScheduler(1)
	pa := &pair{sched: s}
	pa.a = ipstack.New(s, "a")
	pa.b = ipstack.New(s, "b")
	pa.ifA = &pipeIf{name: "pipe0", mtu: 1500, sched: s, peer: pa.b, delay: delay}
	pa.ifB = &pipeIf{name: "pipe0", mtu: 1500, sched: s, peer: pa.a, delay: delay}
	pa.a.AddInterface(pa.ifA, ip.MustAddr("10.0.0.1"), ip.MaskClassC)
	pa.b.AddInterface(pa.ifB, ip.MustAddr("10.0.0.2"), ip.MaskClassC)
	pa.ta = New(pa.a)
	pa.tb = New(pa.b)
	return pa
}

// echoServer accepts connections and records received bytes.
type sink struct {
	buf    bytes.Buffer
	conns  []*Conn
	eof    bool
	closed bool
}

func (k *sink) accept(c *Conn) {
	k.conns = append(k.conns, c)
	c.OnData = func(p []byte) { k.buf.Write(p) }
	c.OnPeerClose = func() { k.eof = true }
	c.OnClose = func(error) { k.closed = true }
}

func TestConnectTransferClose(t *testing.T) {
	p := newPair(t, 5*time.Millisecond)
	var srv sink
	if _, err := p.tb.Listen(23, srv.accept); err != nil {
		t.Fatal(err)
	}
	c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
	connected := false
	var closeErr error
	closedSeen := false
	c.OnConnect = func() { connected = true }
	c.OnClose = func(err error) { closeErr = err; closedSeen = true }

	p.sched.RunFor(time.Second)
	if !connected || c.State() != StateEstablished {
		t.Fatalf("not connected: state=%v", c.State())
	}

	msg := bytes.Repeat([]byte("packet radio to the internet! "), 200) // 6 KB
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	p.sched.RunFor(30 * time.Second)
	if !bytes.Equal(srv.buf.Bytes(), msg) {
		t.Fatalf("server received %d bytes, want %d", srv.buf.Len(), len(msg))
	}

	c.Close()
	p.sched.RunFor(time.Second)
	if !srv.eof {
		t.Fatal("server never saw EOF")
	}
	srv.conns[0].Close()
	p.sched.RunFor(2 * time.Minute) // across TIME_WAIT
	if !closedSeen || closeErr != nil {
		t.Fatalf("client close: seen=%v err=%v", closedSeen, closeErr)
	}
	if !srv.closed {
		t.Fatal("server conn never fully closed")
	}
	if len(p.ta.Conns()) != 0 || len(p.tb.Conns()) != 0 {
		t.Fatalf("connection table leak: %d/%d", len(p.ta.Conns()), len(p.tb.Conns()))
	}
}

func TestConnectionRefused(t *testing.T) {
	p := newPair(t, time.Millisecond)
	c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 99)
	var got error
	c.OnClose = func(err error) { got = err }
	p.sched.RunFor(time.Second)
	if got != ErrRefused {
		t.Fatalf("err = %v, want ErrRefused", got)
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	p := newPair(t, 5*time.Millisecond)
	var srv sink
	p.tb.Listen(23, srv.accept)

	// Drop the 3rd and 7th TCP data segments once each.
	dataSegs := 0
	dropped := map[int]bool{}
	p.ifA.drop = func(pkt *ip.Packet) bool {
		if pkt.Proto != ip.ProtoTCP || len(pkt.Payload) <= HeaderLen {
			return false
		}
		dataSegs++
		if (dataSegs == 3 || dataSegs == 7) && !dropped[dataSegs] {
			dropped[dataSegs] = true
			return true
		}
		return false
	}

	c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
	msg := bytes.Repeat([]byte("x"), 5000)
	c.OnConnect = func() { c.Send(msg) }
	p.sched.RunFor(5 * time.Minute)
	if !bytes.Equal(srv.buf.Bytes(), msg) {
		t.Fatalf("received %d/%d bytes after loss", srv.buf.Len(), len(msg))
	}
	if c.Stats.Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
}

func TestOutOfOrderReassembly(t *testing.T) {
	p := newPair(t, time.Millisecond)
	var srv sink
	p.tb.Listen(23, srv.accept)

	// Delay exactly one mid-stream data segment by 200 ms so later
	// segments arrive first.
	held := false
	p.ifA.drop = func(pkt *ip.Packet) bool {
		if pkt.Proto != ip.ProtoTCP || len(pkt.Payload) <= HeaderLen {
			return false
		}
		if !held && len(srv.buf.Bytes()) > 1000 {
			held = true
			clone := pkt.Clone()
			buf, _ := clone.Marshal()
			p.sched.After(200*time.Millisecond, func() { p.b.Input(buf, "pipe0") })
			return true
		}
		return false
	}
	c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
	msg := make([]byte, 8000)
	for i := range msg {
		msg[i] = byte(i)
	}
	c.OnConnect = func() { c.Send(msg) }
	p.sched.RunFor(5 * time.Minute)
	if !bytes.Equal(srv.buf.Bytes(), msg) {
		t.Fatalf("stream corrupted by reordering: got %d bytes", srv.buf.Len())
	}
}

func TestAdaptiveRTOLearnsLongRTT(t *testing.T) {
	// One-way delay 2s -> RTT 4s, far above the 3s initial RTO: the
	// adaptive sender retransmits early on, then learns and stops.
	p := newPair(t, 2*time.Second)
	var srv sink
	p.tb.Listen(23, srv.accept)
	p.ta.DefaultConfig = Config{Mode: RTOAdaptive}

	c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
	msg := bytes.Repeat([]byte("y"), 20000)
	c.OnConnect = func() { c.Send(msg) }
	p.sched.RunFor(10 * time.Minute)
	if !bytes.Equal(srv.buf.Bytes(), msg) {
		t.Fatalf("transfer incomplete: %d/%d", srv.buf.Len(), len(msg))
	}
	if c.Stats.SRTT < 3*time.Second || c.Stats.SRTT > 6*time.Second {
		t.Fatalf("SRTT = %v, want ~4s", c.Stats.SRTT)
	}
	if c.Stats.CurrentRTO < 4*time.Second {
		t.Fatalf("RTO = %v, should have adapted above the RTT", c.Stats.CurrentRTO)
	}
	// Early timeouts allowed, but learning must cap them well below
	// the fixed-RTO pathology.
	if srv.conns[0].Stats.DupBytes > uint64(len(msg))/2 {
		t.Fatalf("adaptive mode wasted %d dup bytes", srv.conns[0].Stats.DupBytes)
	}
}

func TestFixedRTOBelowRTTWastesBandwidth(t *testing.T) {
	// The §4.1 pathology: fixed 1.5s RTO against a 4s RTT path.
	p := newPair(t, 2*time.Second)
	var srv sink
	p.tb.Listen(23, srv.accept)
	p.ta.DefaultConfig = Config{Mode: RTOFixed, MaxRetries: 100}

	c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
	msg := bytes.Repeat([]byte("z"), 4000)
	c.OnConnect = func() { c.Send(msg) }
	p.sched.RunFor(10 * time.Minute)
	if !bytes.Equal(srv.buf.Bytes(), msg) {
		t.Fatalf("transfer incomplete: %d/%d", srv.buf.Len(), len(msg))
	}
	if c.Stats.Retransmits == 0 {
		t.Fatal("fixed short RTO should retransmit")
	}
	if srv.conns[0].Stats.DupBytes == 0 {
		t.Fatal("no duplicate bytes seen by receiver despite spurious retransmits")
	}
}

func TestAdaptiveBeatsFixedOnWaste(t *testing.T) {
	run := func(cfg Config) (dupBytes uint64) {
		p := newPair(t, 2*time.Second)
		var srv sink
		p.tb.Listen(23, srv.accept)
		p.ta.DefaultConfig = cfg
		c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
		msg := bytes.Repeat([]byte("w"), 10000)
		c.OnConnect = func() { c.Send(msg) }
		p.sched.RunFor(15 * time.Minute)
		if !bytes.Equal(srv.buf.Bytes(), msg) {
			t.Fatalf("transfer incomplete under %+v", cfg)
		}
		return srv.conns[0].Stats.DupBytes
	}
	fixed := run(Config{Mode: RTOFixed, MaxRetries: 100})
	adaptive := run(Config{Mode: RTOAdaptive})
	if adaptive >= fixed {
		t.Fatalf("adaptive dup bytes (%d) not less than fixed (%d)", adaptive, fixed)
	}
}

func TestKarnBackoffDuringBlackhole(t *testing.T) {
	p := newPair(t, 10*time.Millisecond)
	var srv sink
	p.tb.Listen(23, srv.accept)
	p.ta.DefaultConfig = Config{Mode: RTOAdaptive, MaxRetries: 50}

	c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
	black := false
	p.ifA.drop = func(pkt *ip.Packet) bool { return black && pkt.Proto == ip.ProtoTCP }
	c.OnConnect = func() {
		black = true
		c.Send(bytes.Repeat([]byte("k"), 500))
		// Restore the path after 90 s of blackhole.
		p.sched.After(90*time.Second, func() { black = false })
	}
	p.sched.RunFor(30 * time.Second)
	if c.Stats.CurrentRTO < 8*time.Second {
		t.Fatalf("RTO = %v after repeated timeouts, want exponential backoff", c.Stats.CurrentRTO)
	}
	p.sched.RunFor(15 * time.Minute)
	if srv.buf.Len() != 500 {
		t.Fatalf("transfer did not complete after blackhole: %d", srv.buf.Len())
	}
	if c.State() != StateEstablished {
		t.Fatalf("state = %v", c.State())
	}
}

func TestMaxRetriesTimesOut(t *testing.T) {
	p := newPair(t, time.Millisecond)
	var srv sink
	p.tb.Listen(23, srv.accept)
	p.ta.DefaultConfig = Config{Mode: RTOAdaptive, MaxRetries: 3}
	p.ifA.drop = func(pkt *ip.Packet) bool { return pkt.Proto == ip.ProtoTCP }
	c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
	var got error
	c.OnClose = func(err error) { got = err }
	p.sched.RunFor(5 * time.Minute)
	if got != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", got)
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	p := newPair(t, 500*time.Millisecond)
	var srv sink
	p.tb.Listen(23, srv.accept)
	// Track the largest inflight the sender ever has.
	maxInflight := 0
	p.ifA.drop = func(pkt *ip.Packet) bool {
		for _, c := range p.ta.Conns() {
			inflight := int(c.sndNxt - c.sndUna)
			if inflight > maxInflight {
				maxInflight = inflight
			}
		}
		return false
	}
	c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
	c.OnConnect = func() { c.Send(bytes.Repeat([]byte("v"), 50000)) }
	p.sched.RunFor(10 * time.Minute)
	if srv.buf.Len() != 50000 {
		t.Fatalf("transfer incomplete: %d", srv.buf.Len())
	}
	if maxInflight > WindowBytes+1 {
		t.Fatalf("inflight %d exceeded advertised window %d", maxInflight, WindowBytes)
	}
	// A one-second round trip holds far more than a window on this
	// pipe, so the window, not the data, stops the sender: it must
	// come within one 536-byte MSS of it.
	if maxInflight < WindowBytes-536 {
		t.Fatalf("inflight peaked at %d, never filled the %d-byte window", maxInflight, WindowBytes)
	}
}

func TestMSSRespected(t *testing.T) {
	p := newPair(t, time.Millisecond)
	var srv sink
	p.tb.DefaultConfig = Config{MSS: 216} // radio-side MSS
	p.tb.Listen(23, srv.accept)
	maxSeg := 0
	p.ifA.drop = func(pkt *ip.Packet) bool {
		if pkt.Proto == ip.ProtoTCP && len(pkt.Payload) > HeaderLen {
			if n := len(pkt.Payload) - HeaderLen; n > maxSeg {
				maxSeg = n
			}
		}
		return false
	}
	c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
	c.OnConnect = func() { c.Send(make([]byte, 5000)) }
	p.sched.RunFor(time.Minute)
	if srv.buf.Len() != 5000 {
		t.Fatalf("transfer incomplete: %d", srv.buf.Len())
	}
	if maxSeg > 216 {
		t.Fatalf("segment of %d bytes exceeds peer MSS 216", maxSeg)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	p := newPair(t, 5*time.Millisecond)
	var fromA bytes.Buffer
	var serverConn *Conn
	p.tb.Listen(23, func(c *Conn) {
		serverConn = c
		c.OnData = func(b []byte) { fromA.Write(b) }
		c.Send(bytes.Repeat([]byte("S"), 3000))
	})
	var fromB bytes.Buffer
	c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
	c.OnData = func(b []byte) { fromB.Write(b) }
	c.OnConnect = func() { c.Send(bytes.Repeat([]byte("C"), 3000)) }
	p.sched.RunFor(time.Minute)
	if fromA.Len() != 3000 || fromB.Len() != 3000 {
		t.Fatalf("bidirectional: %d/%d", fromA.Len(), fromB.Len())
	}
	_ = serverConn
}

func TestHalfCloseServerKeepsSending(t *testing.T) {
	p := newPair(t, 5*time.Millisecond)
	var srv sink
	var sc *Conn
	p.tb.Listen(23, func(c *Conn) {
		sc = c
		srv.accept(c)
		c.OnPeerClose = func() {
			srv.eof = true
			// Client closed its direction; we still respond.
			c.Send([]byte("late response"))
			c.Close()
		}
	})
	var fromB bytes.Buffer
	c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
	c.OnData = func(b []byte) { fromB.Write(b) }
	c.OnConnect = func() {
		c.Send([]byte("request"))
		c.Close()
	}
	p.sched.RunFor(2 * time.Minute)
	if srv.buf.String() != "request" {
		t.Fatalf("server got %q", srv.buf.String())
	}
	if fromB.String() != "late response" {
		t.Fatalf("client got %q after half close", fromB.String())
	}
	if sc.State() != StateClosed && sc.State() != StateTimeWait {
		// Either side may hold TIME_WAIT depending on close order.
		t.Fatalf("server state = %v", sc.State())
	}
}

func TestAbortResetsPeer(t *testing.T) {
	p := newPair(t, 5*time.Millisecond)
	var srv sink
	var srvErr error
	p.tb.Listen(23, func(c *Conn) {
		srv.accept(c)
		c.OnClose = func(err error) { srvErr = err }
	})
	c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
	c.OnConnect = func() {
		c.Send([]byte("then gone"))
		p.sched.After(time.Second, c.Abort)
	}
	p.sched.RunFor(time.Minute)
	if srvErr != ErrReset {
		t.Fatalf("server err = %v, want ErrReset", srvErr)
	}
}

func TestListenPortConflict(t *testing.T) {
	p := newPair(t, time.Millisecond)
	if _, err := p.tb.Listen(23, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.tb.Listen(23, nil); err == nil {
		t.Fatal("double Listen succeeded")
	}
}

func TestSlowStartLimitsInitialBurst(t *testing.T) {
	p := newPair(t, 500*time.Millisecond)
	var srv sink
	p.tb.Listen(23, srv.accept)
	p.ta.DefaultConfig = Config{Mode: RTOAdaptive, SlowStart: true}

	// Count data segments in the first RTT.
	var firstBurst int
	var burstDone bool
	p.ifA.drop = func(pkt *ip.Packet) bool {
		if !burstDone && pkt.Proto == ip.ProtoTCP && len(pkt.Payload) > HeaderLen {
			firstBurst++
		}
		return false
	}
	c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
	c.OnConnect = func() {
		c.Send(make([]byte, 20000))
		p.sched.After(900*time.Millisecond, func() { burstDone = true })
	}
	p.sched.RunFor(5 * time.Minute)
	if srv.buf.Len() != 20000 {
		t.Fatalf("transfer incomplete: %d", srv.buf.Len())
	}
	if firstBurst > 2 {
		t.Fatalf("slow start sent %d segments in first RTT, want <=2", firstBurst)
	}
}

func TestSegmentStringAndStates(t *testing.T) {
	s := &Segment{SrcPort: 1, DstPort: 2, Flags: FlagSYN | FlagACK, Seq: 5, Ack: 6, Window: 7}
	if s.String() != "tcp 1>2 [S.] seq=5 ack=6 win=7 len=0" {
		t.Fatalf("String() = %q", s.String())
	}
	if StateEstablished.String() != "ESTABLISHED" || State(99).String() != "UNKNOWN" {
		t.Fatal("state strings")
	}
}

func TestSegmentChecksumRejectsCorruption(t *testing.T) {
	src, dst := ip.MustAddr("1.1.1.1"), ip.MustAddr("2.2.2.2")
	s := &Segment{SrcPort: 10, DstPort: 20, Seq: 1, Ack: 2, Flags: FlagACK, Window: 100, Payload: []byte("data")}
	buf := s.Marshal(src, dst)
	if _, err := Unmarshal(src, dst, buf); err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF
	if _, err := Unmarshal(src, dst, buf); err == nil {
		t.Fatal("corrupted segment accepted")
	}
	// Wrong pseudo-header (misdelivered packet) must also fail.
	if _, err := Unmarshal(src, ip.MustAddr("3.3.3.3"), s.Marshal(src, dst)); err == nil {
		t.Fatal("segment accepted with wrong pseudo-header")
	}
}

func TestMSSOptionRoundTrip(t *testing.T) {
	src, dst := ip.MustAddr("1.1.1.1"), ip.MustAddr("2.2.2.2")
	s := &Segment{SrcPort: 1, DstPort: 2, Flags: FlagSYN, MSS: 216}
	got, err := Unmarshal(src, dst, s.Marshal(src, dst))
	if err != nil {
		t.Fatal(err)
	}
	if got.MSS != 216 {
		t.Fatalf("MSS = %d", got.MSS)
	}
}

func TestLostHandshakeAckRecovered(t *testing.T) {
	// Drop the client's final handshake ACK once: the server
	// retransmits SYN|ACK and the established client must re-ACK it,
	// or the connection deadlocks until N2 death (a bug found via a
	// seed-dependent radio collision in the integration suite).
	p := newPair(t, 10*time.Millisecond)
	var srv sink
	p.tb.Listen(23, srv.accept)
	dropped := false
	p.ifA.drop = func(pkt *ip.Packet) bool {
		if pkt.Proto != ip.ProtoTCP || dropped {
			return false
		}
		seg, err := Unmarshal(pkt.Src, pkt.Dst, pkt.Payload)
		if err != nil {
			return false
		}
		// The bare ACK completing the handshake.
		if seg.Flags == FlagACK && len(seg.Payload) == 0 && seg.Ack != 0 && seg.Seq != 0 && len(srv.conns) == 0 {
			dropped = true
			return true
		}
		return false
	}
	c := p.ta.Dial(ip.MustAddr("10.0.0.2"), 23)
	c.OnConnect = func() { c.Send([]byte("after the storm")) }
	p.sched.RunFor(2 * time.Minute)
	if !dropped {
		t.Fatal("test did not exercise the drop")
	}
	if srv.buf.String() != "after the storm" {
		t.Fatalf("server got %q; handshake never recovered", srv.buf.String())
	}
}
