package core

import (
	"testing"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/ip"
	"packetradio/internal/kiss"
	"packetradio/internal/radio"
	"packetradio/internal/serial"
	"packetradio/internal/sim"
	"packetradio/internal/tnc"
)

// stackStub records what the driver delivers to the IP input queue.
type stackStub struct {
	pkts [][]byte
	ifs  []string
}

// Input keeps a copy of buf: the driver lends it for the call only.
func (s *stackStub) Input(buf []byte, ifName string) {
	s.pkts = append(s.pkts, append([]byte(nil), buf...))
	s.ifs = append(s.ifs, ifName)
}

// rig is a driver + TNC + radio assembly for one station.
type rig struct {
	drv   *PacketRadioIf
	tnc   *tnc.TNC
	rf    *radio.Transceiver
	stack *stackStub
}

func newRig(s *sim.Scheduler, ch *radio.Channel, call, addr string) *rig {
	hostEnd, tncEnd := serial.NewLine(s, 9600)
	rf := ch.Attach(call, radio.Params{TXDelay: 100 * time.Millisecond, Persist: 1.0, SlotTime: 50 * time.Millisecond})
	t := tnc.New(s, tncEnd, rf, ax25.MustAddr(call))
	stub := &stackStub{}
	drv := NewPacketRadioIf(s, "pr0", hostEnd, ax25.MustAddr(call), ip.MustAddr(addr), stub)
	drv.Init()
	return &rig{drv: drv, tnc: t, rf: rf, stack: stub}
}

func mkIP(src, dst string, payload []byte) *ip.Packet {
	return &ip.Packet{
		Header:  ip.Header{TTL: 30, Proto: ip.ProtoUDP, ID: 1, Src: ip.MustAddr(src), Dst: ip.MustAddr(dst)},
		Payload: payload,
	}
}

func TestIPDatagramEndToEnd(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newRig(s, ch, "AAA", "44.24.0.1")
	b := newRig(s, ch, "BBB", "44.24.0.2")

	pkt := mkIP("44.24.0.1", "44.24.0.2", []byte("driver path"))
	if err := a.drv.Output(pkt, ip.MustAddr("44.24.0.2")); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Minute)
	if len(b.stack.pkts) != 1 {
		t.Fatalf("b stack received %d datagrams (ARP should resolve first)", len(b.stack.pkts))
	}
	got, err := ip.Unmarshal(b.stack.pkts[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "driver path" {
		t.Fatalf("payload %q", got.Payload)
	}
	if b.stack.ifs[0] != "pr0" {
		t.Fatalf("ifName = %q", b.stack.ifs[0])
	}
	if a.drv.Resolver().Stats.Requests != 1 {
		t.Fatalf("ARP requests = %d", a.drv.Resolver().Stats.Requests)
	}
	if a.drv.DStats.ARPIn == 0 {
		t.Fatal("a never processed the ARP reply")
	}
}

func TestCallsignFilterDropsForeignFrames(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newRig(s, ch, "AAA", "44.24.0.1")
	b := newRig(s, ch, "BBB", "44.24.0.2")
	c := newRig(s, ch, "CCC", "44.24.0.3")
	_ = b

	a.drv.Resolver().AddStatic(ip.MustAddr("44.24.0.2"), ax25.MustAddr("BBB").HW())
	a.drv.Output(mkIP("44.24.0.1", "44.24.0.2", []byte("x")), ip.MustAddr("44.24.0.2"))
	s.RunFor(time.Minute)
	// c's TNC is promiscuous, so the driver sees the frame; the
	// paper's callsign check must reject it.
	if len(c.stack.pkts) != 0 {
		t.Fatal("foreign frame reached c's IP queue")
	}
	if c.drv.DStats.NotForUs != 1 {
		t.Fatalf("NotForUs = %d", c.drv.DStats.NotForUs)
	}
}

func TestBroadcastAccepted(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newRig(s, ch, "AAA", "44.24.0.1")
	b := newRig(s, ch, "BBB", "44.24.0.2")
	pkt := mkIP("44.24.0.1", "255.255.255.255", []byte("hail"))
	a.drv.Output(pkt, ip.Limited)
	s.RunFor(time.Minute)
	if len(b.stack.pkts) != 1 {
		t.Fatalf("broadcast not delivered: %d", len(b.stack.pkts))
	}
}

func TestNonIPGoesToTTYQueue(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newRig(s, ch, "AAA", "44.24.0.1")
	b := newRig(s, ch, "BBB", "44.24.0.2")

	var ttyFrames []*ax25.Frame
	b.drv.TTYHandler = func(f *ax25.Frame) { ttyFrames = append(ttyFrames, f) }

	// A plain AX.25 text frame (PID none) — what a terminal user's
	// connect request looks like to the kernel.
	f := &ax25.Frame{Dst: ax25.MustAddr("BBB"), Src: ax25.MustAddr("AAA"),
		Kind: ax25.KindSABM, PF: true, Command: true}
	a.drv.SendFrame(f)
	s.RunFor(time.Minute)
	if len(ttyFrames) != 1 || ttyFrames[0].Kind != ax25.KindSABM {
		t.Fatalf("tty queue: %v", ttyFrames)
	}
	if len(b.stack.pkts) != 0 {
		t.Fatal("non-IP frame leaked into IP queue")
	}
	if b.drv.DStats.TTYIn != 1 {
		t.Fatalf("DStats: %+v", b.drv.DStats)
	}
}

func TestTTYReadPollingPath(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newRig(s, ch, "AAA", "44.24.0.1")
	b := newRig(s, ch, "BBB", "44.24.0.2")
	// No TTYHandler installed: frames accumulate for polling reads.
	f := ax25.NewUI(ax25.MustAddr("BBB"), ax25.MustAddr("AAA"), ax25.PIDNone, []byte("text"))
	a.drv.SendFrame(f)
	s.RunFor(time.Minute)
	got, ok := b.drv.TTYRead()
	if !ok || string(got.Info) != "text" {
		t.Fatalf("TTYRead: %v %v", got, ok)
	}
	if _, ok := b.drv.TTYRead(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestDigipeaterPathOnOutput(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newRig(s, ch, "AAA", "44.24.0.1")
	b := newRig(s, ch, "BBB", "44.24.0.2")
	rly := ch.Attach("RLY", radio.Params{TXDelay: 100 * time.Millisecond, Persist: 1.0, SlotTime: 50 * time.Millisecond})
	d := tnc.NewDigipeater(ax25.MustAddr("RLY"), rly)
	// Split the channel.
	ch.SetReachable(a.rf, b.rf, false)
	ch.SetReachable(b.rf, a.rf, false)

	a.drv.Resolver().AddStatic(ip.MustAddr("44.24.0.2"), ax25.MustAddr("BBB").HW())
	a.drv.SetPath(ip.MustAddr("44.24.0.2"), ax25.MustAddr("RLY"))
	a.drv.Output(mkIP("44.24.0.1", "44.24.0.2", []byte("via relay")), ip.MustAddr("44.24.0.2"))
	s.RunFor(time.Minute)
	if d.Stats.Repeated != 1 {
		t.Fatalf("digipeater repeated %d", d.Stats.Repeated)
	}
	if len(b.stack.pkts) != 1 {
		t.Fatalf("b received %d datagrams", len(b.stack.pkts))
	}
}

func TestOutputQueueBoundDrops(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newRig(s, ch, "AAA", "44.24.0.1")
	a.drv.Resolver().AddStatic(ip.MustAddr("44.24.0.2"), ax25.MustAddr("BBB").HW())
	// Twice the queue's bytes in 200-byte datagrams, written at one
	// instant, so the serial line drains none of it.
	for i := 0; i < 2*outQueueBytes/200; i++ {
		a.drv.Output(mkIP("44.24.0.1", "44.24.0.2", make([]byte, 200)), ip.MustAddr("44.24.0.2"))
	}
	if a.drv.DStats.OutDrops == 0 {
		t.Fatal("no output drops despite an overfull queue")
	}
	if q := a.drv.ser.QueueLen(); q > outQueueBytes || q < outQueueBytes-300 {
		t.Fatalf("serial queue holds %d bytes, want within one frame of the %d-byte bound", q, outQueueBytes)
	}
}

func TestMonitorSeesBothDirections(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newRig(s, ch, "AAA", "44.24.0.1")
	b := newRig(s, ch, "BBB", "44.24.0.2")
	_ = b
	dirs := map[string]int{}
	a.drv.Monitor = func(dir string, f *ax25.Frame) { dirs[dir]++ }
	a.drv.Output(mkIP("44.24.0.1", "44.24.0.2", []byte("x")), ip.MustAddr("44.24.0.2"))
	s.RunFor(time.Minute)
	if dirs["tx"] == 0 || dirs["rx"] == 0 {
		t.Fatalf("monitor: %v", dirs)
	}
}

func TestDownDriverRefusesOutput(t *testing.T) {
	s := sim.NewScheduler(1)
	hostEnd, _ := serial.NewLine(s, 9600)
	stub := &stackStub{}
	drv := NewPacketRadioIf(s, "pr0", hostEnd, ax25.MustAddr("XXX"), ip.MustAddr("44.0.0.1"), stub)
	// No Init.
	if err := drv.Output(mkIP("44.0.0.1", "44.0.0.2", nil), ip.MustAddr("44.0.0.2")); err == nil {
		t.Fatal("down driver accepted output")
	}
}

func TestSetTNCParams(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 1200)
	a := newRig(s, ch, "AAA", "44.24.0.1")
	a.drv.SetTNCParams(kiss.Params{TXDelay: 20, Persist: 255, SlotTime: 5})
	s.RunFor(time.Second)
	if a.tnc.Params().TXDelay != 20 || a.tnc.Params().Persist != 255 {
		t.Fatalf("params not applied: %+v", a.tnc.Params())
	}
}
