package ax25

import (
	"bytes"
	"testing"
	"time"

	"packetradio/internal/sim"
)

// linkPair wires two Endpoints together through the scheduler with a
// configurable one-way delay and deterministic frame-loss hook.
type linkPair struct {
	sched *sim.Scheduler
	a, b  *Endpoint
	delay time.Duration
	// drop decides whether a frame travelling in the given direction
	// ("a->b" or "b->a") is lost. Nil means no loss.
	drop func(dir string, f *Frame) bool
	sent []string
}

func newLinkPair(t *testing.T) *linkPair {
	t.Helper()
	lp := &linkPair{sched: sim.NewScheduler(1), delay: 10 * time.Millisecond}
	lp.a = NewEndpoint(lp.sched, MustAddr("AAA"), func(f *Frame) { lp.deliver("a->b", f, lp.bInput) })
	lp.b = NewEndpoint(lp.sched, MustAddr("BBB"), func(f *Frame) { lp.deliver("b->a", f, lp.aInput) })
	return lp
}

func (lp *linkPair) aInput(f *Frame) { lp.a.Input(f) }
func (lp *linkPair) bInput(f *Frame) { lp.b.Input(f) }

func (lp *linkPair) deliver(dir string, f *Frame, to func(*Frame)) {
	lp.sent = append(lp.sent, dir+" "+f.String())
	if lp.drop != nil && lp.drop(dir, f) {
		return
	}
	g := f.Clone()
	lp.sched.After(lp.delay, func() { to(g) })
}

func acceptAll(recv *bytes.Buffer) func(*Conn) bool {
	return func(c *Conn) bool {
		c.OnData = func(p []byte) { recv.Write(p) }
		return true
	}
}

func TestConnectTransferDisconnect(t *testing.T) {
	lp := newLinkPair(t)
	var recv bytes.Buffer
	lp.b.Accept = acceptAll(&recv)

	c := lp.a.Dial(MustAddr("BBB"))
	lp.sched.RunFor(time.Second)
	if c.State() != StateConnected {
		t.Fatalf("state = %v, want CONNECTED", c.State())
	}
	bc := lp.b.Conns()[MustAddr("AAA")]
	if bc == nil || bc.State() != StateConnected {
		t.Fatal("acceptor side not connected")
	}

	msg := bytes.Repeat([]byte("hello packet radio! "), 40) // forces segmentation
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	lp.sched.RunFor(30 * time.Second)
	if !bytes.Equal(recv.Bytes(), msg) {
		t.Fatalf("received %d bytes, want %d; data mismatch", recv.Len(), len(msg))
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending() = %d after full ack", c.Pending())
	}

	c.Disconnect()
	lp.sched.RunFor(5 * time.Second)
	if c.State() != StateDisconnected || bc.State() != StateDisconnected {
		t.Fatalf("states after DISC: %v / %v", c.State(), bc.State())
	}
	if c.Err() != nil {
		t.Fatalf("clean disconnect left error %v", c.Err())
	}
}

func TestRefusedConnection(t *testing.T) {
	lp := newLinkPair(t)
	lp.b.Accept = func(*Conn) bool { return false }
	c := lp.a.Dial(MustAddr("BBB"))
	lp.sched.RunFor(time.Second)
	if c.State() != StateDisconnected {
		t.Fatalf("state = %v, want DISCONNECTED", c.State())
	}
	if c.Err() != ErrConnRefused {
		t.Fatalf("err = %v, want ErrConnRefused", c.Err())
	}
}

func TestNilAcceptRefuses(t *testing.T) {
	lp := newLinkPair(t)
	c := lp.a.Dial(MustAddr("BBB"))
	lp.sched.RunFor(time.Second)
	if c.Err() != ErrConnRefused {
		t.Fatalf("err = %v, want refused when Accept is nil", c.Err())
	}
}

func TestRetransmissionOnLoss(t *testing.T) {
	lp := newLinkPair(t)
	var recv bytes.Buffer
	lp.b.Accept = acceptAll(&recv)

	// Drop the first two I frames in the a->b direction.
	dropped := 0
	lp.drop = func(dir string, f *Frame) bool {
		if dir == "a->b" && f.Kind == KindI && dropped < 2 {
			dropped++
			return true
		}
		return false
	}

	c := lp.a.Dial(MustAddr("BBB"))
	lp.sched.RunFor(time.Second)
	msg := []byte("must survive loss")
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	lp.sched.RunFor(time.Minute)
	if !bytes.Equal(recv.Bytes(), msg) {
		t.Fatalf("received %q, want %q", recv.Bytes(), msg)
	}
	if c.Stats.Retransmits == 0 || c.Stats.T1Expiries == 0 {
		t.Fatalf("expected retransmissions, stats = %+v", c.Stats)
	}
}

func TestREJRecoversFromMidWindowLoss(t *testing.T) {
	lp := newLinkPair(t)
	var recv bytes.Buffer
	lp.b.Accept = acceptAll(&recv)

	// Lose exactly the second I frame once; later frames arrive out of
	// sequence and must trigger REJ-based recovery.
	iCount := 0
	lp.drop = func(dir string, f *Frame) bool {
		if dir == "a->b" && f.Kind == KindI {
			iCount++
			return iCount == 2
		}
		return false
	}

	c := lp.a.Dial(MustAddr("BBB"))
	lp.sched.RunFor(time.Second)
	msg := make([]byte, window*pacLen) // one full window of segments
	for i := range msg {
		msg[i] = byte('a' + i%26)
	}
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	lp.sched.RunFor(time.Minute)
	if !bytes.Equal(recv.Bytes(), msg) {
		t.Fatalf("received %q, want %q", recv.Bytes(), msg)
	}
	bc := lp.b.Conns()[MustAddr("AAA")]
	if bc.Stats.RejSent == 0 {
		t.Fatalf("receiver never sent REJ: %+v", bc.Stats)
	}
	if bc.Stats.OutOfSeq == 0 {
		t.Fatal("receiver never saw out-of-sequence frames")
	}
}

func TestN2ExhaustionFailsLink(t *testing.T) {
	lp := newLinkPair(t)
	var recv bytes.Buffer
	lp.b.Accept = acceptAll(&recv)

	c := lp.a.Dial(MustAddr("BBB"))
	lp.sched.RunFor(time.Second)
	if c.State() != StateConnected {
		t.Fatal("setup failed")
	}
	// Now sever the a->b direction entirely.
	lp.drop = func(dir string, f *Frame) bool { return dir == "a->b" }
	c.Send([]byte("into the void"))
	// N2 retries after the first T1 expiry: the link must still be
	// trying one T1 before the last one, and have failed after it.
	lp.sched.RunFor(maxRetry * frack)
	if c.State() != StateConnected {
		t.Fatalf("state = %v after %d T1 expiries, want CONNECTED until N2 is spent", c.State(), c.Stats.T1Expiries)
	}
	lp.sched.RunFor(2 * frack)
	if c.State() != StateDisconnected {
		t.Fatalf("state = %v, want DISCONNECTED after N2", c.State())
	}
	if c.Err() != ErrLinkTimeout {
		t.Fatalf("err = %v, want ErrLinkTimeout", c.Err())
	}
	if c.Stats.T1Expiries != maxRetry+1 {
		t.Fatalf("T1 expired %d times, want N2+1 = %d", c.Stats.T1Expiries, maxRetry+1)
	}
}

func TestConnectRetriesThenFails(t *testing.T) {
	lp := newLinkPair(t)
	lp.drop = func(string, *Frame) bool { return true } // dead air
	c := lp.a.Dial(MustAddr("BBB"))
	lp.sched.RunFor((maxRetry + 2) * frack)
	if c.State() != StateDisconnected || c.Err() != ErrLinkTimeout {
		t.Fatalf("state=%v err=%v", c.State(), c.Err())
	}
	// The first SABM and one per retry: N2+1 in all.
	if len(lp.sent) != maxRetry+1 {
		t.Fatalf("%d SABMs sent, want N2+1 = %d: %v", len(lp.sent), maxRetry+1, lp.sent)
	}
}

func TestWindowLimitsOutstandingFrames(t *testing.T) {
	lp := newLinkPair(t)
	var recv bytes.Buffer
	lp.b.Accept = acceptAll(&recv)

	// Count I frames in flight before any ack can come back: stop all
	// b->a traffic so the window must close.
	inFlight := 0
	lp.drop = func(dir string, f *Frame) bool {
		if dir == "b->a" && f.Kind != KindUA {
			return true
		}
		if dir == "a->b" && f.Kind == KindI {
			inFlight++
		}
		return false
	}
	c := lp.a.Dial(MustAddr("BBB"))
	lp.sched.RunFor(time.Second)
	c.Send(bytes.Repeat([]byte("x"), 10*pacLen)) // 10 segments
	lp.sched.RunFor(frack / 2)                   // less than T1
	if inFlight != window {
		t.Fatalf("%d I frames sent with window %d and no acks, want %d", inFlight, window, window)
	}
}

func TestRNRStopsSender(t *testing.T) {
	lp := newLinkPair(t)
	var recv bytes.Buffer
	lp.b.Accept = acceptAll(&recv)

	c := lp.a.Dial(MustAddr("BBB"))
	lp.sched.RunFor(time.Second)
	bc := lp.b.Conns()[MustAddr("AAA")]
	bc.SetBusy(true)
	lp.sched.RunFor(time.Second)

	msg := bytes.Repeat([]byte("abcdefgh"), pacLen/4) // 2 segments
	c.Send(msg)
	lp.sched.RunFor(5 * time.Second)
	// The sender already learned the peer is busy, so nothing may be
	// transmitted while RNR is in force.
	if got := recv.Len(); got != 0 {
		t.Fatalf("receiver got %d bytes while busy, want 0", got)
	}
	bc.SetBusy(false)
	lp.sched.RunFor(30 * time.Minute)
	if !bytes.Equal(recv.Bytes(), msg) {
		t.Fatalf("after unbusy got %d bytes, want %d", recv.Len(), len(msg))
	}
}

func TestLostUnbusyRRRecoveredByPoll(t *testing.T) {
	lp := newLinkPair(t)
	var recv bytes.Buffer
	lp.b.Accept = acceptAll(&recv)

	c := lp.a.Dial(MustAddr("BBB"))
	lp.sched.RunFor(time.Second)
	bc := lp.b.Conns()[MustAddr("AAA")]
	bc.SetBusy(true)
	lp.sched.RunFor(time.Second)

	// Drop the RR that announces "no longer busy": the sender must
	// discover the state change through its T1 poll.
	dropRR := true
	lp.drop = func(dir string, f *Frame) bool {
		if dir == "b->a" && f.Kind == KindRR && !f.PF && dropRR {
			dropRR = false
			return true
		}
		return false
	}
	c.Send([]byte("abcdefgh"))
	lp.sched.RunFor(time.Second)
	bc.SetBusy(false) // this RR is lost
	lp.sched.RunFor(time.Minute)
	if recv.String() != "abcdefgh" {
		t.Fatalf("poll recovery failed: got %q", recv.String())
	}
}

func TestT3KeepalivePolls(t *testing.T) {
	lp := newLinkPair(t)
	var recv bytes.Buffer
	lp.b.Accept = acceptAll(&recv)
	c := lp.a.Dial(MustAddr("BBB"))
	lp.sched.RunFor(idleCheck / 2)
	if c.Stats.KeepalivePolls != 0 {
		t.Fatalf("%d keepalive polls before T3 ran out", c.Stats.KeepalivePolls)
	}
	lp.sched.RunFor(10 * idleCheck)
	if c.State() != StateConnected {
		t.Fatalf("idle link dropped: %v (err %v)", c.State(), c.Err())
	}
	if c.Stats.KeepalivePolls < 10 {
		t.Fatalf("%d keepalive polls in %v idle, want one per T3 (%v)", c.Stats.KeepalivePolls, 10*idleCheck+idleCheck/2, idleCheck)
	}
	bc := lp.b.Conns()[MustAddr("AAA")]
	if bc.Stats.PollsAnswered == 0 {
		t.Fatal("peer never answered polls")
	}
}

func TestT3DoesNotKillIdleLinkLongTerm(t *testing.T) {
	// Regression: the RR final answering a keepalive poll must clear
	// the T1 poll cycle, or retries accumulate until N2 tears down a
	// healthy link. Run both sides with keepalives for a long time.
	lp := newLinkPair(t)
	var recv bytes.Buffer
	lp.b.Accept = acceptAll(&recv)
	c := lp.a.Dial(MustAddr("BBB"))
	lp.sched.RunFor(120 * idleCheck)
	if c.State() != StateConnected {
		t.Fatalf("idle link died after 120 T3 periods: err=%v stats=%+v", c.Err(), c.Stats)
	}
	if c.Stats.KeepalivePolls < 60 {
		t.Fatalf("only %d keepalive polls in 120 T3 periods", c.Stats.KeepalivePolls)
	}
	if c.Stats.T1Expiries > 2 {
		t.Fatalf("T1 kept re-polling: %d expiries", c.Stats.T1Expiries)
	}
	// Link must still move data.
	if err := c.Send([]byte("still alive")); err != nil {
		t.Fatal(err)
	}
	lp.sched.RunFor(time.Minute)
	if recv.String() != "still alive" {
		t.Fatalf("got %q", recv.String())
	}
}

func TestPeerDisappearsDetectedByT3(t *testing.T) {
	lp := newLinkPair(t)
	var recv bytes.Buffer
	lp.b.Accept = acceptAll(&recv)
	c := lp.a.Dial(MustAddr("BBB"))
	lp.sched.RunFor(time.Second)
	lp.drop = func(string, *Frame) bool { return true } // peer vanishes
	lp.sched.RunFor(idleCheck + (maxRetry+2)*frack)
	if c.State() != StateDisconnected || c.Err() != ErrLinkTimeout {
		t.Fatalf("dead peer undetected: state=%v err=%v", c.State(), c.Err())
	}
	if c.Stats.KeepalivePolls != 1 || c.Stats.T1Expiries != maxRetry+1 {
		t.Fatalf("keepalive polls %d, T1 expiries %d; want 1 poll then N2+1 = %d expiries",
			c.Stats.KeepalivePolls, c.Stats.T1Expiries, maxRetry+1)
	}
}

func TestDMInResponseToStrayTraffic(t *testing.T) {
	lp := newLinkPair(t)
	var dmSeen bool
	lp.drop = func(dir string, f *Frame) bool {
		if dir == "b->a" && f.Kind == KindDM {
			dmSeen = true
		}
		return false
	}
	// Send an I frame to B with no connection.
	f := &Frame{Dst: MustAddr("BBB"), Src: MustAddr("AAA"), Kind: KindI, PID: PIDNone, Info: []byte("?"), Command: true}
	lp.b.Input(f)
	lp.sched.RunFor(time.Second)
	if !dmSeen {
		t.Fatal("no DM for stray I frame")
	}
}

func TestSendWhileDisconnectedFails(t *testing.T) {
	lp := newLinkPair(t)
	c := lp.a.conn(MustAddr("BBB"))
	if err := c.Send([]byte("x")); err != ErrNotConnected {
		t.Fatalf("err = %v, want ErrNotConnected", err)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	lp := newLinkPair(t)
	var fromA, fromB bytes.Buffer
	lp.b.Accept = func(c *Conn) bool {
		c.OnData = func(p []byte) { fromA.Write(p) }
		return true
	}
	c := lp.a.Dial(MustAddr("BBB"))
	c.OnData = func(p []byte) { fromB.Write(p) }
	lp.sched.RunFor(time.Second)
	bc := lp.b.Conns()[MustAddr("AAA")]

	aMsg := bytes.Repeat([]byte("A"), 600)
	bMsg := bytes.Repeat([]byte("B"), 600)
	c.Send(aMsg)
	bc.Send(bMsg)
	lp.sched.RunFor(time.Minute)
	if !bytes.Equal(fromA.Bytes(), aMsg) || !bytes.Equal(fromB.Bytes(), bMsg) {
		t.Fatalf("bidirectional mismatch: %d/%d bytes", fromA.Len(), fromB.Len())
	}
}

func TestDigipeaterPathUsedAndReversed(t *testing.T) {
	lp := newLinkPair(t)
	var recv bytes.Buffer
	lp.b.Accept = acceptAll(&recv)
	var aPathSeen, bPathSeen []Digi
	lp.drop = func(dir string, f *Frame) bool {
		if dir == "a->b" && f.Kind == KindSABM {
			aPathSeen = f.Digi
		}
		if dir == "b->a" && f.Kind == KindUA {
			bPathSeen = f.Digi
		}
		return false
	}
	c := lp.a.Dial(MustAddr("BBB"), MustAddr("D1"), MustAddr("D2"))
	lp.sched.RunFor(time.Second)
	if c.State() != StateConnected {
		t.Fatalf("state = %v", c.State())
	}
	if len(aPathSeen) != 2 || aPathSeen[0].Addr != MustAddr("D1") {
		t.Fatalf("outbound path = %v", aPathSeen)
	}
	if len(bPathSeen) != 2 || bPathSeen[0].Addr != MustAddr("D2") || bPathSeen[1].Addr != MustAddr("D1") {
		t.Fatalf("reply path = %v, want reversed [D2 D1]", bPathSeen)
	}
}

func TestStateString(t *testing.T) {
	if StateConnected.String() != "CONNECTED" || ConnState(9).String() != "UNKNOWN" {
		t.Fatal("ConnState.String broken")
	}
}

func TestEndpointRemove(t *testing.T) {
	lp := newLinkPair(t)
	lp.b.Accept = func(*Conn) bool { return true }
	lp.a.Dial(MustAddr("BBB"))
	lp.sched.RunFor(time.Second)
	if len(lp.a.Conns()) != 1 {
		t.Fatal("conn not tracked")
	}
	lp.a.Remove(MustAddr("BBB"))
	if len(lp.a.Conns()) != 0 {
		t.Fatal("conn not removed")
	}
}
