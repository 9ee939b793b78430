package ether

import (
	"fmt"
	"testing"
	"time"

	"packetradio/internal/arp"
	"packetradio/internal/ip"
	"packetradio/internal/ipstack"
	"packetradio/internal/sim"
)

// host bundles a stack and NIC for tests.
type host struct {
	stack *ipstack.Stack
	nic   *NIC
}

func newHost(s *sim.Scheduler, g *Segment, name string, addr string) *host {
	st := ipstack.New(s, name)
	n := g.Attach("qe0", ip.MustAddr(addr), st)
	n.Init()
	st.AddInterface(n, ip.MustAddr(addr), ip.Mask{})
	return &host{stack: st, nic: n}
}

func TestPingAcrossSegment(t *testing.T) {
	s := sim.NewScheduler(1)
	g := NewSegment(s, 0)
	a := newHost(s, g, "alpha", "128.95.1.1")
	b := newHost(s, g, "beta", "128.95.1.2")
	_ = b

	var rtt time.Duration
	ok := false
	a.stack.Ping(ip.MustAddr("128.95.1.2"), 56, func(seq uint16, d time.Duration, from ip.Addr) {
		ok = true
		rtt = d
	})
	s.RunFor(5 * time.Second)
	if !ok {
		t.Fatal("no ping reply")
	}
	// RTT must be sub-millisecond on 10 Mb/s Ethernet.
	if rtt <= 0 || rtt > time.Millisecond {
		t.Fatalf("rtt = %v", rtt)
	}
	// ARP must have resolved exactly once in each direction at most.
	if a.nic.Resolver().Stats.Requests != 1 {
		t.Fatalf("a sent %d ARP requests", a.nic.Resolver().Stats.Requests)
	}
}

func TestSecondPingUsesARPCache(t *testing.T) {
	s := sim.NewScheduler(1)
	g := NewSegment(s, 0)
	a := newHost(s, g, "alpha", "128.95.1.1")
	newHost(s, g, "beta", "128.95.1.2")

	replies := 0
	a.stack.Ping(ip.MustAddr("128.95.1.2"), 32, func(uint16, time.Duration, ip.Addr) { replies++ })
	s.RunFor(time.Second)
	a.stack.Ping(ip.MustAddr("128.95.1.2"), 32, func(uint16, time.Duration, ip.Addr) { replies++ })
	s.RunFor(time.Second)
	if replies != 2 {
		t.Fatalf("replies = %d", replies)
	}
	if a.nic.Resolver().Stats.Requests != 1 {
		t.Fatalf("ARP requests = %d, want 1 (cached)", a.nic.Resolver().Stats.Requests)
	}
}

func TestUnicastNotSeenByThirdParty(t *testing.T) {
	s := sim.NewScheduler(1)
	g := NewSegment(s, 0)
	a := newHost(s, g, "alpha", "128.95.1.1")
	newHost(s, g, "beta", "128.95.1.2")
	c := newHost(s, g, "gamma", "128.95.1.3")

	a.stack.Ping(ip.MustAddr("128.95.1.2"), 32, func(uint16, time.Duration, ip.Addr) {})
	s.RunFor(time.Second)
	// gamma sees the ARP broadcast but none of the unicast IP frames.
	if c.stack.Stats.Received != 0 {
		t.Fatalf("gamma received %d IP packets", c.stack.Stats.Received)
	}
	if c.nic.Stats().Ipackets == 0 {
		t.Fatal("gamma never saw the ARP broadcast")
	}
}

func TestForwardingBetweenSegments(t *testing.T) {
	s := sim.NewScheduler(1)
	g1 := NewSegment(s, 0)
	g2 := NewSegment(s, 0)

	// Router with a leg on each segment.
	router := ipstack.New(s, "router")
	router.Forwarding = true
	r1 := g1.Attach("qe0", ip.MustAddr("10.1.0.1"), router)
	r2 := g2.Attach("qe1", ip.MustAddr("10.2.0.1"), router)
	r1.Init()
	r2.Init()
	router.AddInterface(r1, ip.MustAddr("10.1.0.1"), ip.MaskClassB)
	router.AddInterface(r2, ip.MustAddr("10.2.0.1"), ip.MaskClassB)

	// Hosts on each side with routes through the router.
	a := ipstack.New(s, "a")
	an := g1.Attach("qe0", ip.MustAddr("10.1.0.2"), a)
	an.Init()
	a.AddInterface(an, ip.MustAddr("10.1.0.2"), ip.MaskClassB)
	a.Routes.AddDefault(ip.MustAddr("10.1.0.1"), "qe0")

	b := ipstack.New(s, "b")
	bn := g2.Attach("qe0", ip.MustAddr("10.2.0.2"), b)
	bn.Init()
	b.AddInterface(bn, ip.MustAddr("10.2.0.2"), ip.MaskClassB)
	b.Routes.AddDefault(ip.MustAddr("10.2.0.1"), "qe0")

	ok := false
	a.Ping(ip.MustAddr("10.2.0.2"), 64, func(uint16, time.Duration, ip.Addr) { ok = true })
	s.RunFor(5 * time.Second)
	if !ok {
		t.Fatal("ping through router failed")
	}
	if router.Stats.Forwarded < 2 {
		t.Fatalf("router forwarded %d packets, want >=2", router.Stats.Forwarded)
	}
}

func TestHostDoesNotForward(t *testing.T) {
	s := sim.NewScheduler(1)
	g := NewSegment(s, 0)
	a := newHost(s, g, "alpha", "128.95.1.1")
	b := newHost(s, g, "beta", "128.95.1.2")

	// Host a routes 44/8 via host b (which is NOT a gateway).
	a.stack.Routes.AddNet(ip.MustAddr("44.0.0.0"), ip.Mask{}, ip.MustAddr("128.95.1.2"), "qe0")
	got := false
	a.stack.Ping(ip.MustAddr("44.24.0.5"), 8, func(uint16, time.Duration, ip.Addr) { got = true })
	s.RunFor(5 * time.Second)
	if got {
		t.Fatal("reply through non-forwarding host")
	}
	if b.stack.Stats.Forwarded != 0 {
		t.Fatal("host forwarded")
	}
}

func TestTTLExpiryGeneratesTimeExceeded(t *testing.T) {
	s := sim.NewScheduler(1)
	g := NewSegment(s, 0)
	a := newHost(s, g, "alpha", "128.95.1.1")
	b := newHost(s, g, "beta", "128.95.1.2")
	b.stack.Forwarding = true
	// b will try to forward to a bogus net, but TTL=1 kills it first.
	b.stack.Routes.AddNet(ip.MustAddr("44.0.0.0"), ip.Mask{}, ip.Addr{}, "qe0")
	a.stack.Routes.AddNet(ip.MustAddr("44.0.0.0"), ip.Mask{}, ip.MustAddr("128.95.1.2"), "qe0")

	err := a.stack.Send(ip.ProtoUDP, ip.Addr{}, ip.MustAddr("44.1.1.1"), []byte("x"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second)
	if b.stack.Stats.TTLDrops != 1 {
		t.Fatalf("TTLDrops = %d", b.stack.Stats.TTLDrops)
	}
	if a.stack.Stats.ICMPIn == 0 {
		t.Fatal("source never received time-exceeded")
	}
}

func TestDownNICRejectsOutput(t *testing.T) {
	s := sim.NewScheduler(1)
	g := NewSegment(s, 0)
	st := ipstack.New(s, "x")
	n := g.Attach("qe0", ip.MustAddr("10.0.0.1"), st)
	// Never Init'ed.
	err := n.Output(&ip.Packet{Header: ip.Header{Dst: ip.MustAddr("10.0.0.2")}}, ip.MustAddr("10.0.0.2"))
	if err == nil {
		t.Fatal("down NIC accepted output")
	}
}

func TestMACAssignmentAndString(t *testing.T) {
	s := sim.NewScheduler(1)
	g := NewSegment(s, 0)
	st := ipstack.New(s, "x")
	n1 := g.Attach("qe0", ip.MustAddr("10.0.0.1"), st)
	n2 := g.Attach("qe1", ip.MustAddr("10.0.0.2"), st)
	if n1.MAC() == n2.MAC() {
		t.Fatal("duplicate MACs")
	}
	if n1.MAC().String() != "08:00:2b:00:00:01" {
		t.Fatalf("MAC = %s", n1.MAC())
	}
}

func TestBroadcastIPDelivery(t *testing.T) {
	s := sim.NewScheduler(1)
	g := NewSegment(s, 0)
	a := newHost(s, g, "alpha", "128.95.1.1")
	b := newHost(s, g, "beta", "128.95.1.2")
	c := newHost(s, g, "gamma", "128.95.1.3")

	err := a.stack.Send(ip.ProtoUDP, ip.Addr{}, ip.Limited, []byte("hail"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Limited broadcast is local + link: a itself also delivers.
	s.RunFor(time.Second)
	if b.stack.Stats.Received == 0 || c.stack.Stats.Received == 0 {
		t.Fatalf("broadcast not delivered: b=%d c=%d", b.stack.Stats.Received, c.stack.Stats.Received)
	}
}

func TestSegmentSetReachableCutsPair(t *testing.T) {
	s := sim.NewScheduler(9)
	g := NewSegment(s, 0)
	a := newHost(s, g, "alpha", "128.95.1.1")
	b := newHost(s, g, "beta", "128.95.1.2")

	ping := func() bool {
		ok := false
		a.stack.Ping(ip.MustAddr("128.95.1.2"), 56, func(_ uint16, _ time.Duration, _ ip.Addr) { ok = true })
		s.RunUntilDone(s.Now().Add(10*time.Second), func() bool { return ok })
		return ok
	}
	if !ping() {
		t.Fatal("baseline ping failed")
	}
	g.SetReachable(a.nic, b.nic, false)
	g.SetReachable(b.nic, a.nic, false)
	if ping() {
		t.Fatal("ping crossed a cut pair")
	}
	g.SetReachable(a.nic, b.nic, true)
	g.SetReachable(b.nic, a.nic, true)
	if !ping() {
		t.Fatal("ping failed after restore")
	}
}

// sink counts IP datagrams handed up by a NIC.
type sink struct{ n int }

func (k *sink) Input([]byte, string) { k.n++ }

// filterSegment is a single-loop segment with four up NICs, each
// delivering into its own sink.
func filterSegment(t *testing.T) (*sim.Scheduler, *Segment, []*NIC, []*sink) {
	t.Helper()
	s := sim.NewScheduler(1)
	g := NewSegment(s, 0)
	var nics []*NIC
	var sinks []*sink
	for i := 0; i < 4; i++ {
		k := &sink{}
		n := g.Attach("qe0", ip.Addr{10, 0, 0, byte(i + 1)}, k)
		n.Init()
		nics = append(nics, n)
		sinks = append(sinks, k)
	}
	return s, g, nics, sinks
}

// receptions sends one frame carrying payload from nics[0] and reports
// how many events it scheduled and fired, and which NICs took it in.
func receptions(t *testing.T, s *sim.Scheduler, nics []*NIC, dst MAC, etherType uint16, payload []byte) (scheduled int, fired uint64, got []uint64) {
	t.Helper()
	before := s.Fired()
	f := nics[0].seg.newFrame()
	f.b = append(f.b, payload...)
	nics[0].transmit(dst, etherType, f)
	scheduled = s.Pending()
	s.Run()
	for _, n := range nics {
		got = append(got, n.Stats().Ipackets)
	}
	return scheduled, s.Fired() - before, got
}

func TestUnicastFiresOneReception(t *testing.T) {
	s, _, nics, sinks := filterSegment(t)
	scheduled, fired, got := receptions(t, s, nics, nics[2].MAC(), TypeIP, []byte("datagram"))
	if scheduled != 1 || fired != 1 {
		t.Fatalf("unicast scheduled %d and fired %d events, want 1 and 1", scheduled, fired)
	}
	for i, n := range got {
		want := uint64(0)
		if i == 2 {
			want = 1
		}
		if n != want {
			t.Errorf("NIC %d Ipackets = %d, want %d", i, n, want)
		}
	}
	if sinks[2].n != 1 || sinks[1].n+sinks[3].n != 0 {
		t.Errorf("datagrams handed up: %d to the destination, %d elsewhere", sinks[2].n, sinks[1].n+sinks[3].n)
	}
}

func TestBroadcastARPReachesEveryUnblockedNIC(t *testing.T) {
	s, g, nics, _ := filterSegment(t)
	g.SetReachable(nics[0], nics[3], false)
	// A request for an address nobody owns: every receiver takes it in
	// and none answers, so each fired event is one reception.
	req := &arp.Packet{HType: arp.HTypeEthernet, PType: arp.EtherTypeIP, Op: arp.OpRequest,
		SHA: nics[0].mac[:], SPA: ip.Addr{10, 0, 0, 1}, THA: make([]byte, 6), TPA: ip.Addr{10, 0, 0, 99}}
	buf, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	_, fired, got := receptions(t, s, nics, BroadcastMAC, TypeARP, buf)
	if fired != 2 {
		t.Fatalf("broadcast fired %d events, want 2 (two reachable NICs)", fired)
	}
	if want := []uint64{0, 1, 1, 0}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Ipackets per NIC = %v, want %v (sender and blocked NIC see nothing)", got, want)
	}
}

func TestBlockedPairSuppressesUnicast(t *testing.T) {
	s, g, nics, _ := filterSegment(t)
	g.SetReachable(nics[0], nics[1], false)
	scheduled, fired, got := receptions(t, s, nics, nics[1].MAC(), TypeIP, []byte("datagram"))
	if scheduled != 0 || fired != 0 || got[1] != 0 {
		t.Fatalf("unicast across a cut pair scheduled %d, fired %d, delivered %d", scheduled, fired, got[1])
	}
}

func TestUnknownMACSchedulesNothing(t *testing.T) {
	s, _, nics, _ := filterSegment(t)
	scheduled, fired, got := receptions(t, s, nics, MAC{0x08, 0x00, 0x2B, 0xEE, 0xEE, 0xEE}, TypeIP, []byte("datagram"))
	if scheduled != 0 || fired != 0 {
		t.Fatalf("frame for an unknown MAC scheduled %d and fired %d events, want none", scheduled, fired)
	}
	for i, n := range got {
		if n != 0 {
			t.Errorf("NIC %d took in a frame for an unknown MAC", i)
		}
	}
}

// A broadcast ARP is one frame shared by a reception at every other
// NIC: it goes back to the segment's list only after the last of them
// has run, and then exactly once.
func TestBroadcastFrameReturnsAfterLastReception(t *testing.T) {
	s, g, nics, _ := filterSegment(t)
	nics[0].Resolver().Announce()
	if g.frames.Len() != 0 {
		t.Fatal("the frame is back on the list before any reception")
	}
	for i := 1; i < len(nics); i++ {
		if !s.Step() {
			t.Fatalf("only %d receptions ran", i-1)
		}
		want := 0
		if i == len(nics)-1 {
			want = 1
		}
		if g.frames.Len() != want {
			t.Fatalf("after reception %d of %d the list holds %d frames, want %d", i, len(nics)-1, g.frames.Len(), want)
		}
	}
	if s.Step() {
		t.Fatal("a reception past the last NIC")
	}
	if got := g.rxs.Len(); got != len(nics)-1 {
		t.Fatalf("%d receptions back on the list, want %d", got, len(nics)-1)
	}
}
