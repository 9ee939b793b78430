package netrom

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/radio"
	"packetradio/internal/sim"
)

func TestPacketRoundTrip(t *testing.T) {
	cases := []*Packet{
		{Origin: ax25.MustAddr("N1A"), Dest: ax25.MustAddr("N2B-3"), TTL: 7, Op: OpInfo,
			CircuitIdx: 1, CircuitID: 2, TxSeq: 3, RxSeq: 4, Info: []byte("payload")},
		{Origin: ax25.MustAddr("N1A"), Dest: ax25.MustAddr("N2B"), TTL: 16, Op: OpConnReq,
			CircuitIdx: 9, CircuitID: 8, Window: 4, User: ax25.MustAddr("U1U"), Node: ax25.MustAddr("N1A")},
		{Origin: ax25.MustAddr("N1A"), Dest: ax25.MustAddr("N2B"), TTL: 16, Op: OpConnAck, Window: 2},
		{Origin: ax25.MustAddr("N1A"), Dest: ax25.MustAddr("N2B"), TTL: 1, Op: OpDatagram,
			Proto: ax25.PIDIP, Info: []byte{0x45, 0, 0, 20}},
	}
	for _, p := range cases {
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			t.Fatalf("op %d: %v", p.Op, err)
		}
		if got.Origin != p.Origin || got.Dest != p.Dest || got.TTL != p.TTL ||
			got.Op != p.Op || !bytes.Equal(got.Info, p.Info) {
			t.Fatalf("op %d round trip: %+v != %+v", p.Op, got, p)
		}
		switch p.Op & 0x0F {
		case OpConnReq:
			if got.Window != p.Window || got.User != p.User || got.Node != p.Node {
				t.Fatalf("connreq fields: %+v", got)
			}
		case OpDatagram:
			if got.Proto != p.Proto {
				t.Fatalf("proto = %d", got.Proto)
			}
		}
	}
}

func TestNodesBroadcastRoundTrip(t *testing.T) {
	b := &NodesBroadcast{
		Mnemonic: "SEA",
		Entries: []NodesEntry{
			{Dest: ax25.MustAddr("TAC"), Alias: "TACOMA", BestNeighbor: ax25.MustAddr("MID"), Quality: 152},
			{Dest: ax25.MustAddr("PDX-1"), Alias: "PORTLND"[:6], BestNeighbor: ax25.MustAddr("TAC"), Quality: 90},
		},
	}
	got, err := UnmarshalNodes(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Mnemonic != "SEA" || len(got.Entries) != 2 {
		t.Fatalf("broadcast: %+v", got)
	}
	if got.Entries[0].Dest != ax25.MustAddr("TAC") || got.Entries[0].Quality != 152 {
		t.Fatalf("entry 0: %+v", got.Entries[0])
	}
	if _, err := UnmarshalNodes([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestQuickPacketRoundTrip(t *testing.T) {
	f := func(ttl, op uint8, info []byte) bool {
		p := &Packet{
			Origin: ax25.MustAddr("AAA"), Dest: ax25.MustAddr("BBB"),
			TTL: ttl, Op: op&0x0F | op&0xF0, Info: info,
		}
		if p.Op&0x0F == 0 {
			p.Op |= OpInfo
		}
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			// ConnReq/ConnAck/Datagram consume leading info bytes as
			// their fixed fields; an empty info can be short.
			return true
		}
		return got.TTL == p.TTL && bytes.Equal(got.Info, p.Info) || p.Op&0x0F == OpConnReq ||
			p.Op&0x0F == OpConnAck || p.Op&0x0F == OpDatagram
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// lineTopology builds N nodes on one channel where node i only hears
// its neighbors i-1 and i+1 (a point-to-point backbone).
func lineTopology(t *testing.T, names []string) (*sim.Scheduler, *radio.Channel, []*Node) {
	t.Helper()
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 9600) // backbone at 9600
	nodes := make([]*Node, len(names))
	for i, name := range names {
		nodes[i] = NewNode(s, ch, name, name)
	}
	for i := range nodes {
		for j := range nodes {
			if i == j {
				continue
			}
			ok := j == i-1 || j == i+1
			ch.SetReachable(nodes[i].RF(), nodes[j].RF(), ok)
		}
	}
	return s, ch, nodes
}

func TestNodesConvergenceOnLine(t *testing.T) {
	s, _, nodes := lineTopology(t, []string{"SEA", "MID", "TAC"})
	for _, n := range nodes {
		n.Start()
	}
	s.RunFor(5 * time.Minute)
	for _, n := range nodes {
		n.Stop()
	}
	// SEA must have learned a route to TAC via MID.
	r, ok := nodes[0].Routes()[ax25.MustAddr("TAC")]
	if !ok {
		t.Fatal("SEA never learned TAC")
	}
	if r.BestNeighbor != ax25.MustAddr("MID") {
		t.Fatalf("SEA routes TAC via %v", r.BestNeighbor)
	}
	// Quality of the 2-hop route must be below the 1-hop quality.
	direct := nodes[0].Routes()[ax25.MustAddr("MID")]
	if r.Quality >= direct.Quality {
		t.Fatalf("2-hop quality %d >= 1-hop %d", r.Quality, direct.Quality)
	}
}

func TestDatagramAcrossTwoHops(t *testing.T) {
	s, _, nodes := lineTopology(t, []string{"SEA", "MID", "TAC"})
	for _, n := range nodes {
		n.Start()
	}
	s.RunFor(5 * time.Minute)

	var got []byte
	var from ax25.Addr
	nodes[2].OnDatagram = func(origin ax25.Addr, proto uint8, payload []byte) {
		if proto == ax25.PIDIP {
			from = origin
			got = payload
		}
	}
	if !nodes[0].SendDatagram(ax25.MustAddr("TAC"), ax25.PIDIP, []byte("ip-in-netrom")) {
		t.Fatal("no route for datagram")
	}
	s.RunFor(time.Minute)
	for _, n := range nodes {
		n.Stop()
	}
	if string(got) != "ip-in-netrom" || from != ax25.MustAddr("SEA") {
		t.Fatalf("got %q from %v", got, from)
	}
	if nodes[1].Stats.L3Forwarded != 1 {
		t.Fatalf("MID forwarded %d", nodes[1].Stats.L3Forwarded)
	}
}

func TestRouteAgesOut(t *testing.T) {
	s, _, nodes := lineTopology(t, []string{"SEA", "MID"})
	nodes[1].Start()
	nodes[0].Start()
	s.RunFor(2 * time.Minute)
	if !nodes[0].HasRoute(ax25.MustAddr("MID")) {
		t.Fatal("route never learned")
	}
	// MID goes silent; SEA keeps broadcasting and aging.
	nodes[1].Stop()
	s.RunFor(30 * time.Minute)
	nodes[0].Stop()
	if nodes[0].HasRoute(ax25.MustAddr("MID")) {
		t.Fatal("dead route survived obsolescence")
	}
}

func TestTTLPreventsLoops(t *testing.T) {
	// Two nodes with mutually poisoned tables cannot loop a packet
	// forever: build the loop artificially and count forwards.
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 9600)
	a := NewNode(s, ch, "AAA", "A")
	b := NewNode(s, ch, "BBB", "B")
	// Hand-install looping routes for an unreachable destination.
	a.routes[ax25.MustAddr("ZZZ")] = &RouteEntry{Dest: ax25.MustAddr("ZZZ"), BestNeighbor: b.Call, Quality: 100, Obsolescence: 99}
	b.routes[ax25.MustAddr("ZZZ")] = &RouteEntry{Dest: ax25.MustAddr("ZZZ"), BestNeighbor: a.Call, Quality: 100, Obsolescence: 99}
	a.SendDatagram(ax25.MustAddr("ZZZ"), ax25.PIDIP, []byte("doomed"))
	s.RunFor(10 * time.Minute)
	total := a.Stats.L3Forwarded + b.Stats.L3Forwarded + a.Stats.L3TTLDrops + b.Stats.L3TTLDrops
	if a.Stats.L3TTLDrops+b.Stats.L3TTLDrops != 1 {
		t.Fatalf("TTL drops = %d, want 1", a.Stats.L3TTLDrops+b.Stats.L3TTLDrops)
	}
	if total > uint64(DefaultTTL)+1 {
		t.Fatalf("packet handled %d times, loop not bounded", total)
	}
}

func TestCircuitTransfer(t *testing.T) {
	s, _, nodes := lineTopology(t, []string{"SEA", "MID", "TAC"})
	for _, n := range nodes {
		n.Start()
	}
	s.RunFor(5 * time.Minute)

	var rcvd bytes.Buffer
	nodes[2].AcceptCircuit = func(c *Circuit) bool {
		c.OnData = func(p []byte) { rcvd.Write(p) }
		return true
	}
	c := nodes[0].Connect(ax25.MustAddr("TAC"))
	up := false
	c.OnState = func(u bool) { up = u }
	s.RunFor(2 * time.Minute)
	if !up || !c.Up() {
		t.Fatal("circuit never established")
	}
	c.Send([]byte("first "))
	c.Send([]byte("second"))
	s.RunFor(5 * time.Minute)
	if rcvd.String() != "first second" {
		t.Fatalf("circuit data = %q", rcvd.String())
	}
	c.Disconnect()
	s.RunFor(time.Minute)
	for _, n := range nodes {
		n.Stop()
	}
	if c.Up() {
		t.Fatal("circuit still up after disconnect")
	}
}

func TestCircuitRefused(t *testing.T) {
	s, _, nodes := lineTopology(t, []string{"SEA", "MID"})
	for _, n := range nodes {
		n.Start()
	}
	s.RunFor(2 * time.Minute)
	// MID has no AcceptCircuit: must refuse.
	c := nodes[0].Connect(ax25.MustAddr("MID"))
	s.RunFor(10 * time.Minute)
	for _, n := range nodes {
		n.Stop()
	}
	if c.Up() {
		t.Fatal("refused circuit came up")
	}
}

func TestCircuitRetransmission(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := radio.NewChannel(s, 9600)
	// Moderate noise: some Info frames will be damaged and must be
	// retransmitted by the stop-and-wait layer.
	ch.BitErrorRate = 2e-4
	a := NewNode(s, ch, "AAA", "A")
	b := NewNode(s, ch, "BBB", "B")
	a.Start()
	b.Start()
	s.RunFor(3 * time.Minute)

	var rcvd bytes.Buffer
	b.AcceptCircuit = func(c *Circuit) bool {
		c.OnData = func(p []byte) { rcvd.Write(p) }
		return true
	}
	c := a.Connect(b.Call)
	s.RunFor(2 * time.Minute)
	want := bytes.Repeat([]byte("data!"), 20)
	for i := 0; i < len(want); i += 20 {
		c.Send(want[i : i+20])
	}
	s.RunFor(30 * time.Minute)
	a.Stop()
	b.Stop()
	if !bytes.Equal(rcvd.Bytes(), want) {
		t.Fatalf("received %d/%d bytes over noisy circuit", rcvd.Len(), len(want))
	}
}
