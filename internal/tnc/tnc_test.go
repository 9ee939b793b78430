package tnc

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/kiss"
	"packetradio/internal/radio"
	"packetradio/internal/serial"
	"packetradio/internal/sim"
)

// station is one host+TNC pair on a shared channel for tests.
type station struct {
	host *serial.End // host side of the line
	tnc  *TNC
	dec  kiss.Decoder
	rx   []kiss.Frame
}

func newStation(s *sim.Scheduler, ch *radio.Channel, call string, baud int) *station {
	st := &station{}
	hostEnd, tncEnd := serial.NewLine(s, baud)
	rf := ch.Attach(call, radio.Params{TXDelay: 100 * time.Millisecond, Persist: 1.0, SlotTime: 50 * time.Millisecond})
	st.host = hostEnd
	st.tnc = New(s, tncEnd, rf, ax25.MustAddr(call))
	st.dec.Frame = func(f kiss.Frame) {
		f.Payload = append([]byte(nil), f.Payload...) // the decoder only lends it
		st.rx = append(st.rx, f)
	}
	hostEnd.SetReceiver(st.dec.PutByte)
	return st
}

// sendUI writes a KISS-encapsulated UI frame into the TNC from the host.
func (st *station) sendUI(t *testing.T, dst, src string, pid uint8, info []byte, via ...string) {
	t.Helper()
	f := ax25.NewUI(ax25.MustAddr(dst), ax25.MustAddr(src), pid, info)
	if len(via) > 0 {
		digis := make([]ax25.Addr, len(via))
		for i, v := range via {
			digis[i] = ax25.MustAddr(v)
		}
		f = f.Via(digis...)
	}
	enc, err := f.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	st.host.Write(kiss.Encode(nil, 0, enc))
}

func TestKISSEndToEnd(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newStation(s, ch, "AAA", 9600)
	b := newStation(s, ch, "BBB", 9600)

	a.sendUI(t, "BBB", "AAA", ax25.PIDIP, []byte("ip datagram bytes"))
	s.RunFor(10 * time.Second)

	if len(b.rx) != 1 {
		t.Fatalf("b host received %d KISS frames, want 1", len(b.rx))
	}
	f, err := ax25.Decode(b.rx[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if f.Src != ax25.MustAddr("AAA") || f.PID != ax25.PIDIP || string(f.Info) != "ip datagram bytes" {
		t.Fatalf("frame = %v", f)
	}
	if a.tnc.Stats.Transmitted != 1 || b.tnc.Stats.ToHost != 1 {
		t.Fatalf("stats a=%+v b=%+v", a.tnc.Stats, b.tnc.Stats)
	}
}

func TestPromiscuousPassesEverything(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newStation(s, ch, "AAA", 9600)
	c := newStation(s, ch, "CCC", 9600)
	// Frame addressed to BBB; CCC is promiscuous (the default) so its
	// host sees it anyway — the paper's §3 problem.
	a.sendUI(t, "BBB", "AAA", ax25.PIDNone, []byte("not for ccc"))
	s.RunFor(10 * time.Second)
	if len(c.rx) != 1 {
		t.Fatalf("promiscuous TNC passed %d frames, want 1", len(c.rx))
	}
}

func TestAddressFilterSuppressesForeignTraffic(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newStation(s, ch, "AAA", 9600)
	c := newStation(s, ch, "CCC", 9600)
	c.tnc.SetFilter(AddressFilter)

	a.sendUI(t, "BBB", "AAA", ax25.PIDNone, []byte("not for ccc"))
	a.sendUI(t, "CCC", "AAA", ax25.PIDNone, []byte("for ccc"))
	a.sendUI(t, "QST", "AAA", ax25.PIDNone, []byte("broadcast"))
	s.RunFor(30 * time.Second)

	if len(c.rx) != 2 {
		t.Fatalf("filtered TNC passed %d frames, want 2 (own + broadcast)", len(c.rx))
	}
	if c.tnc.Filtered() != 1 {
		t.Fatalf("Filtered = %d, want 1", c.tnc.Filtered())
	}
}

func TestAddressFilterPassesDigipeatTarget(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newStation(s, ch, "AAA", 9600)
	c := newStation(s, ch, "CCC", 9600)
	c.tnc.SetFilter(AddressFilter)
	// Frame for BBB routed via CCC: the filter must pass it up (the
	// host may be doing software digipeating).
	a.sendUI(t, "BBB", "AAA", ax25.PIDNone, []byte("via ccc"), "CCC")
	s.RunFor(10 * time.Second)
	if len(c.rx) != 1 {
		t.Fatalf("digipeat-target frame filtered out")
	}
}

func TestKISSParamsApplied(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newStation(s, ch, "AAA", 9600)
	a.host.Write(kiss.EncodeCommand(nil, 0, kiss.CmdTXDelay, []byte{10})) // 100 ms
	a.host.Write(kiss.EncodeCommand(nil, 0, kiss.CmdPersist, []byte{255}))
	s.RunFor(time.Second)
	if a.tnc.Params().TXDelay != 10 {
		t.Fatalf("TXDelay param = %d", a.tnc.Params().TXDelay)
	}
	if a.tnc.Stats.ParamsSet != 2 {
		t.Fatalf("ParamsSet = %d", a.tnc.Stats.ParamsSet)
	}
}

func TestCollisionDropsFrameViaCRC(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newStation(s, ch, "AAA", 9600)
	b := newStation(s, ch, "BBB", 9600)
	c := newStation(s, ch, "CCC", 9600)
	// p=1 removes the persistence lottery: both stations key up at the
	// same instant, within the DCD window, and collide at c.
	a.host.Write(kiss.EncodeCommand(nil, 0, kiss.CmdPersist, []byte{255}))
	b.host.Write(kiss.EncodeCommand(nil, 0, kiss.CmdPersist, []byte{255}))
	s.RunFor(time.Second)
	a.sendUI(t, "CCC", "AAA", ax25.PIDNone, bytes.Repeat([]byte{1}, 64))
	b.sendUI(t, "CCC", "BBB", ax25.PIDNone, bytes.Repeat([]byte{2}, 64))
	s.RunFor(30 * time.Second)
	if len(c.rx) != 0 {
		t.Fatalf("c received %d frames from a collision", len(c.rx))
	}
	if c.tnc.Stats.CRCErrors != 2 {
		t.Fatalf("CRCErrors = %d, want 2", c.tnc.Stats.CRCErrors)
	}
}

func TestHostQueueOverflowDrops(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newStation(s, ch, "AAA", 9600)
	// Gateway with a slow serial line: 300 baud drains ~30 B/s while
	// the channel delivers ~150 B/s, so the host queue must overflow.
	g := newStation(s, ch, "GGG", 300)

	for i := 0; i < 4*hostQueueFrames; i++ {
		a.sendUI(t, "QST", "AAA", ax25.PIDNone, bytes.Repeat([]byte{byte(i)}, 128))
	}
	s.RunFor(10 * time.Minute)
	if g.tnc.Stats.HostDrops == 0 {
		t.Fatalf("no host drops despite saturated serial line: %+v", g.tnc.Stats)
	}
}

func TestDigipeaterRepeatsAndMarks(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newStation(s, ch, "AAA", 9600)
	b := newStation(s, ch, "BBB", 9600)
	rfd := ch.Attach("RLY", radio.Params{TXDelay: 100 * time.Millisecond, Persist: 1.0, SlotTime: 50 * time.Millisecond})
	d := NewDigipeater(ax25.MustAddr("RLY"), rfd)

	// a cannot reach b directly; both reach RLY.
	ch.SetReachable(a.tnc.rf, b.tnc.rf, false)
	ch.SetReachable(b.tnc.rf, a.tnc.rf, false)

	a.sendUI(t, "BBB", "AAA", ax25.PIDNone, []byte("via relay"), "RLY")
	s.RunFor(30 * time.Second)

	if d.Stats.Repeated != 1 {
		t.Fatalf("Repeated = %d, want 1", d.Stats.Repeated)
	}
	// b's host must see the frame exactly once, with the H bit set.
	var got []kiss.Frame
	for _, f := range b.rx {
		fr, err := ax25.Decode(f.Payload)
		if err == nil && string(fr.Info) == "via relay" {
			got = append(got, f)
			if len(fr.Digi) != 1 || !fr.Digi[0].Repeated {
				t.Fatalf("H bit not set: %v", fr)
			}
		}
	}
	if len(got) != 1 {
		t.Fatalf("b saw the frame %d times, want 1", len(got))
	}
}

func TestDigipeaterIgnoresRepeatedAndForeign(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newStation(s, ch, "AAA", 9600)
	rfd := ch.Attach("RLY", radio.Params{TXDelay: 100 * time.Millisecond, Persist: 1.0, SlotTime: 50 * time.Millisecond})
	d := NewDigipeater(ax25.MustAddr("RLY"), rfd)

	a.sendUI(t, "BBB", "AAA", ax25.PIDNone, []byte("direct")) // no path
	a.sendUI(t, "BBB", "AAA", ax25.PIDNone, []byte("other"), "XXX")
	s.RunFor(30 * time.Second)
	if d.Stats.Repeated != 0 {
		t.Fatalf("Repeated = %d, want 0", d.Stats.Repeated)
	}
	if d.Stats.Ignored != 2 {
		t.Fatalf("Ignored = %d, want 2", d.Stats.Ignored)
	}
}

// --- Native firmware ---------------------------------------------------

// terminal drives a Native TNC as a user at a dumb terminal.
type terminal struct {
	host *serial.End
	out  bytes.Buffer
}

func newTerminal(s *sim.Scheduler, ch *radio.Channel, call string) (*terminal, *Native) {
	hostEnd, tncEnd := serial.NewLine(s, 9600)
	rf := ch.Attach(call, radio.Params{TXDelay: 100 * time.Millisecond, Persist: 1.0, SlotTime: 50 * time.Millisecond})
	n := NewNative(s, tncEnd, rf, ax25.MustAddr(call))
	term := &terminal{host: hostEnd}
	hostEnd.SetReceiver(func(b byte) { term.out.WriteByte(b) })
	return term, n
}

func (tm *terminal) typeLine(line string) { tm.host.Write([]byte(line + "\r")) }

func TestNativeConnectConverseDisconnect(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	ta, _ := newTerminal(s, ch, "AAA")
	tb, nb := newTerminal(s, ch, "BBB")
	_ = nb

	ta.typeLine("CONNECT BBB")
	s.RunFor(10 * time.Second)
	if !strings.Contains(ta.out.String(), "*** CONNECTED to BBB") {
		t.Fatalf("a terminal: %q", ta.out.String())
	}
	if !strings.Contains(tb.out.String(), "*** CONNECTED to AAA") {
		t.Fatalf("b terminal: %q", tb.out.String())
	}

	// a is now in converse mode; typed lines flow to b's terminal.
	ta.typeLine("hello from aaa")
	s.RunFor(30 * time.Second)
	if !strings.Contains(tb.out.String(), "hello from aaa") {
		t.Fatalf("b terminal missing data: %q", tb.out.String())
	}

	// Escape to command mode and disconnect.
	ta.host.Write([]byte{0x03})
	ta.typeLine("DISCONNECT")
	s.RunFor(30 * time.Second)
	if !strings.Contains(ta.out.String(), "*** DISCONNECTED") {
		t.Fatalf("a terminal missing disconnect: %q", ta.out.String())
	}
	if !strings.Contains(tb.out.String(), "*** DISCONNECTED") {
		t.Fatalf("b terminal missing disconnect: %q", tb.out.String())
	}
}

func TestNativeRefusesSecondConnection(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	ta, _ := newTerminal(s, ch, "AAA")
	_, _ = newTerminal(s, ch, "BBB")
	tc, _ := newTerminal(s, ch, "CCC")

	ta.typeLine("CONNECT BBB")
	s.RunFor(10 * time.Second)
	tc.typeLine("CONNECT BBB")
	s.RunFor(30 * time.Second)
	if !strings.Contains(tc.out.String(), "DISCONNECTED") {
		t.Fatalf("c should have been refused: %q", tc.out.String())
	}
}

func TestNativeMycallAndBadCommands(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	ta, na := newTerminal(s, ch, "AAA")
	ta.typeLine("MYCALL N7AKR-2")
	ta.typeLine("MYCALL")
	ta.typeLine("BOGUS")
	ta.typeLine("CONNECT !!!")
	s.RunFor(5 * time.Second)
	if na.MyCall != ax25.MustAddr("N7AKR-2") {
		t.Fatalf("MyCall = %v", na.MyCall)
	}
	out := ta.out.String()
	if !strings.Contains(out, "MYCALL N7AKR-2") || !strings.Contains(out, "?eh") || !strings.Contains(out, "?bad callsign") {
		t.Fatalf("terminal: %q", out)
	}
}

func TestNativeMonitorShowsOverheardFrames(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newStation(s, ch, "AAA", 9600)
	tm, _ := newTerminal(s, ch, "MMM")
	tm.typeLine("MONITOR ON")
	s.RunFor(time.Second)
	a.sendUI(t, "BBB", "AAA", ax25.PIDNone, []byte("overheard"))
	s.RunFor(10 * time.Second)
	if !strings.Contains(tm.out.String(), "AAA>BBB") {
		t.Fatalf("monitor output: %q", tm.out.String())
	}
}

func TestNativeDigipeat(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newStation(s, ch, "AAA", 9600)
	b := newStation(s, ch, "BBB", 9600)
	tr, nr := newTerminal(s, ch, "RLY")
	tr.typeLine("DIGIPEAT ON")
	ch.SetReachable(a.tnc.rf, b.tnc.rf, false)
	ch.SetReachable(b.tnc.rf, a.tnc.rf, false)

	s.RunFor(time.Second)
	a.sendUI(t, "BBB", "AAA", ax25.PIDNone, []byte("relayed"), "RLY")
	s.RunFor(30 * time.Second)
	if nr.Stats.Repeated != 1 {
		t.Fatalf("Repeated = %d", nr.Stats.Repeated)
	}
	if len(b.rx) != 1 {
		t.Fatalf("b received %d frames", len(b.rx))
	}
}

// The KISS TNC's host queue holds copies: a body queued behind a busy
// serial line stays intact after the channel reuses its on-air bytes
// for a later frame of the same length.
func TestQueuedBodySurvivesFrameReuse(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newStation(s, ch, "AAA", 9600)
	b := newStation(s, ch, "BBB", 50) // slow: bodies queue in the TNC
	for i, info := range []string{"first", "second", "third!"} {
		a.sendUI(t, "BBB", "AAA", ax25.PIDNone, []byte(info))
		// Heard before the next goes out, so each frame reuses the
		// buffer the channel took back from the one before.
		heard := func() bool { return b.tnc.rf.FramesHeard() > uint64(i) }
		s.RunUntilDone(s.Now().Add(time.Minute), heard)
		if !heard() {
			t.Fatalf("%q not heard", info)
		}
	}
	if b.tnc.hostQ.Len() == 0 {
		t.Fatal("nothing queued toward the host: the line is not slow enough")
	}
	s.RunFor(time.Minute)
	var got []string
	for _, f := range b.rx {
		fr, err := ax25.Decode(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(fr.Info))
	}
	if strings.Join(got, ",") != "first,second,third!" {
		t.Fatalf("host read %q, want first, second, third!", got)
	}
}
