package world

import (
	"fmt"
	"testing"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/icmp"
	"packetradio/internal/ip"
	"packetradio/internal/tcp"
)

func TestPingBetweenRadioPCs(t *testing.T) {
	s := NewSeattle(SeattleConfig{Seed: 1})
	var rtt time.Duration
	s.PCs[0].Stack.Ping(PCIP(1), 56, func(_ uint16, d time.Duration, _ ip.Addr) { rtt = d })
	s.W.Run(2 * time.Minute)
	if rtt == 0 {
		t.Fatal("no reply between radio PCs")
	}
	// Two ~100-byte frames at 1200 bps plus TXDELAYs: at least a second.
	if rtt < time.Second || rtt > 30*time.Second {
		t.Fatalf("rtt = %v, implausible for 1200 bps", rtt)
	}
}

func TestPingRadioToInternetThroughGateway(t *testing.T) {
	// The paper's first success: "we were able to telnet from an
	// isolated IBM PC to a system that was on our Ethernet by way of
	// the new gateway" — here the ICMP-level equivalent.
	s := NewSeattle(SeattleConfig{Seed: 1})
	var rtt time.Duration
	s.PCs[0].Stack.Ping(InternetIP, 56, func(_ uint16, d time.Duration, _ ip.Addr) { rtt = d })
	s.W.Run(2 * time.Minute)
	if rtt == 0 {
		t.Fatal("no reply across the gateway")
	}
	if s.Gateway.Stack.Stats.Forwarded < 2 {
		t.Fatalf("gateway forwarded %d packets", s.Gateway.Stack.Stats.Forwarded)
	}
}

func TestPingInternetToRadioWithoutACL(t *testing.T) {
	s := NewSeattle(SeattleConfig{Seed: 1})
	var got bool
	s.Internet.Stack.Ping(PCIP(0), 56, func(uint16, time.Duration, ip.Addr) { got = true })
	s.W.Run(2 * time.Minute)
	if !got {
		t.Fatal("open gateway blocked inbound traffic")
	}
}

func TestACLBlocksUnsolicitedInbound(t *testing.T) {
	s := NewSeattle(SeattleConfig{Seed: 1, WithACL: true})
	var got bool
	s.Internet.Stack.Ping(PCIP(0), 56, func(uint16, time.Duration, ip.Addr) { got = true })
	s.W.Run(2 * time.Minute)
	if got {
		t.Fatal("ACL failed to block unsolicited inbound traffic")
	}
	if s.GatewayGW.ACL.Stats.Blocked == 0 {
		t.Fatal("no blocks recorded")
	}
}

func TestACLOpensAfterOutboundTraffic(t *testing.T) {
	s := NewSeattle(SeattleConfig{Seed: 1, WithACL: true})
	// PC pings out first: "Whenever a packet is received on the
	// amateur side destined for a non-amateur host, an entry is made
	// in the table, enabling the non-amateur host to send packets in
	// the other direction."
	s.PCs[0].Stack.Ping(InternetIP, 8, func(uint16, time.Duration, ip.Addr) {})
	s.W.Run(2 * time.Minute)
	if s.GatewayGW.ACL.Stats.AutoAdded == 0 {
		t.Fatal("outbound traffic created no table entry")
	}
	var got bool
	s.Internet.Stack.Ping(PCIP(0), 8, func(uint16, time.Duration, ip.Addr) { got = true })
	s.W.Run(2 * time.Minute)
	if !got {
		t.Fatal("reverse direction still blocked after outbound traffic")
	}
}

func TestACLEntryExpires(t *testing.T) {
	s := NewSeattle(SeattleConfig{Seed: 1, WithACL: true})
	s.GatewayGW.ACL.IdleTTL = time.Minute
	s.PCs[0].Stack.Ping(InternetIP, 8, func(uint16, time.Duration, ip.Addr) {})
	s.W.Run(30 * time.Second)
	if s.GatewayGW.ACL.Len() == 0 {
		t.Fatal("no entry created")
	}
	s.W.Run(5 * time.Minute)
	if s.GatewayGW.ACL.Len() != 0 {
		t.Fatal("entry survived idle TTL")
	}
}

func TestICMPAuthAddFromInternetSide(t *testing.T) {
	s := NewSeattle(SeattleConfig{Seed: 1, WithACL: true})
	s.GatewayGW.ACL.Operators["N7AKR"] = "hamgate"

	// Wrong password first.
	bad := icmp.NewAuthAdd(&icmp.AuthPayload{
		TTLSeconds: 600, Amateur: PCIP(0), NonAmateur: InternetIP,
		Callsign: "N7AKR", Password: "wrong",
	})
	s.Internet.Stack.Send(ip.ProtoICMP, ip.Addr{}, GatewayEtherIP, bad.Marshal(), 0, 0)
	s.W.Run(time.Second)
	if s.GatewayGW.ACL.Stats.AuthFailures != 1 {
		t.Fatalf("AuthFailures = %d, want 1", s.GatewayGW.ACL.Stats.AuthFailures)
	}

	// Correct credentials.
	good := icmp.NewAuthAdd(&icmp.AuthPayload{
		TTLSeconds: 600, Amateur: PCIP(0), NonAmateur: InternetIP,
		Callsign: "N7AKR", Password: "hamgate",
	})
	s.Internet.Stack.Send(ip.ProtoICMP, ip.Addr{}, GatewayEtherIP, good.Marshal(), 0, 0)
	s.W.Run(time.Second)
	if s.GatewayGW.ACL.Stats.ICMPAdds != 1 {
		t.Fatalf("ICMPAdds = %d", s.GatewayGW.ACL.Stats.ICMPAdds)
	}

	var got bool
	s.Internet.Stack.Ping(PCIP(0), 8, func(uint16, time.Duration, ip.Addr) { got = true })
	s.W.Run(2 * time.Minute)
	if !got {
		t.Fatal("ICMP-added authorization not honored")
	}
}

func TestICMPAuthDelCutsOffLink(t *testing.T) {
	// "This allows the amateur radio operator that initiated the link
	// to exercise his control operator function to cut off the link."
	s := NewSeattle(SeattleConfig{Seed: 1, WithACL: true})
	s.PCs[0].Stack.Ping(InternetIP, 8, func(uint16, time.Duration, ip.Addr) {})
	s.W.Run(time.Minute)

	del := icmp.NewAuthDel(&icmp.AuthPayload{Amateur: PCIP(0), NonAmateur: InternetIP})
	// From the amateur side: no password needed.
	s.PCs[0].Stack.Send(ip.ProtoICMP, ip.Addr{}, GatewayIP, del.Marshal(), 0, 0)
	s.W.Run(time.Minute)
	if s.GatewayGW.ACL.Stats.ICMPDels != 1 {
		t.Fatalf("ICMPDels = %d", s.GatewayGW.ACL.Stats.ICMPDels)
	}
	var got bool
	s.Internet.Stack.Ping(PCIP(0), 8, func(uint16, time.Duration, ip.Addr) { got = true })
	s.W.Run(2 * time.Minute)
	if got {
		t.Fatal("traffic still allowed after control-operator cutoff")
	}
}

func TestFragmentationAcrossMTUMismatch(t *testing.T) {
	// A 1000-byte datagram from the Ethernet (MTU 1500) must be
	// fragmented by the gateway for the 256-byte radio MTU and
	// reassembled by the PC.
	s := NewSeattle(SeattleConfig{Seed: 1})
	var rtt time.Duration
	s.Internet.Stack.Ping(PCIP(0), 1000, func(_ uint16, d time.Duration, _ ip.Addr) { rtt = d })
	s.W.Run(5 * time.Minute)
	if rtt == 0 {
		t.Fatal("large ping never returned")
	}
	if s.Gateway.Stack.Stats.FragsOut == 0 {
		t.Fatal("gateway never fragmented")
	}
	if s.PCs[0].Stack.Stats.Reassembled == 0 {
		t.Fatal("PC never reassembled")
	}
}

func TestARPResolvesOverRadio(t *testing.T) {
	s := NewSeattle(SeattleConfig{Seed: 1})
	s.PCs[0].Stack.Ping(PCIP(1), 8, func(uint16, time.Duration, ip.Addr) {})
	s.W.Run(2 * time.Minute)
	res := s.PCs[0].Radio("pr0").Driver.Resolver()
	if res.Stats.Requests == 0 {
		t.Fatal("no AX.25 ARP request went out")
	}
	if _, ok := res.Lookup(PCIP(1)); !ok {
		t.Fatal("peer not in ARP cache after exchange")
	}
}

func TestDigipeaterPathConfiguredInDriver(t *testing.T) {
	// Split the channel: pc1 and pc2 cannot hear each other; RELAY
	// hears both. pc1 must reach pc2 via the configured digi path.
	s := NewSeattle(SeattleConfig{Seed: 1})
	relay := s.W.Digipeater(s.Channel, "RELAY")
	_ = relay
	rf1 := s.PCs[0].Radio("pr0").RF
	rf2 := s.PCs[1].Radio("pr0").RF
	s.Channel.SetReachable(rf1, rf2, false)
	s.Channel.SetReachable(rf2, rf1, false)

	// Static ARP + digi path both ways (ARP broadcasts would not
	// traverse the split without them).
	relayCall := ax25.MustAddr("RELAY")
	d1 := s.PCs[0].Radio("pr0").Driver
	d2 := s.PCs[1].Radio("pr0").Driver
	d1.Resolver().AddStatic(PCIP(1), d2.MyCall.HW())
	d1.SetPath(PCIP(1), relayCall)
	d2.Resolver().AddStatic(PCIP(0), d1.MyCall.HW())
	d2.SetPath(PCIP(0), relayCall)

	var rtt time.Duration
	s.PCs[0].Stack.Ping(PCIP(1), 32, func(_ uint16, d time.Duration, _ ip.Addr) { rtt = d })
	s.W.Run(5 * time.Minute)
	if rtt == 0 {
		t.Fatal("no reply via digipeater")
	}
	if relay.Stats.Repeated < 2 {
		t.Fatalf("relay repeated %d frames, want >=2", relay.Stats.Repeated)
	}
}

func TestNoisyChannelStillDeliversWithTCP(t *testing.T) {
	// Failure injection at the physical layer: a noisy channel damages
	// frames (caught by the TNC's FCS check) and TCP must still move
	// the §2.3 workload intact.
	s := NewSeattle(SeattleConfig{Seed: 21, NumPCs: 1})
	s.Channel.BitErrorRate = 2e-4 // ~30% loss on a 230-byte frame

	inetTCP := tcp.New(s.Internet.Stack)
	inetTCP.DefaultConfig = tcp.Config{MSS: 216, MaxRetries: 40}
	pcTCP := tcp.New(s.PCs[0].Stack)

	var got int
	pcTCP.Listen(9000, func(c *tcp.Conn) {
		c.OnData = func(p []byte) { got += len(p) }
	})
	conn := inetTCP.Dial(PCIP(0), 9000)
	conn.OnConnect = func() { conn.Send(make([]byte, 3000)) }
	s.W.Run(time.Hour)
	if got != 3000 {
		t.Fatalf("delivered %d/3000 bytes over noisy channel (rexmits=%d)",
			got, conn.Stats.Retransmits)
	}
	gwTNC := s.Gateway.Radio("pr0").TNC
	pcTNC := s.PCs[0].Radio("pr0").TNC
	if gwTNC.Stats.CRCErrors+pcTNC.Stats.CRCErrors == 0 {
		t.Fatal("noise injection did not damage any frames")
	}
}

// The seed reaches the Seattle world through the CSMA persistence
// draws alone: one ping fires the same events at every seed (each
// transmission attempt is one wake however many draws it loses), so
// seeds are told apart by what the draws decide — the ping's RTT and
// the deferrals at the PC and the gateway.
func TestSeattleWorldIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) string {
		s := NewSeattle(SeattleConfig{Seed: seed})
		var rtt time.Duration
		s.PCs[0].Stack.Ping(InternetIP, 64, func(_ uint16, d time.Duration, _ ip.Addr) { rtt = d })
		s.W.Run(5 * time.Minute)
		return fmt.Sprintf("rtt=%v deferrals=%d+%d", rtt,
			s.PCs[0].Radio("pr0").RF.CSMADeferrals(), s.Gateway.Radio("pr0").RF.CSMADeferrals())
	}
	a, b := run(11), run(11)
	if a != b {
		t.Fatalf("same seed produced different outcomes: %s vs %s", a, b)
	}
	if c := run(12); c == a {
		t.Fatalf("different seeds suspiciously identical: %s", a)
	}
}

func TestNetROMBackboneHelper(t *testing.T) {
	w := New(31)
	bb := w.Channel("backbone", 0)
	a := w.Host("gw-a")
	b := w.Host("gw-b")
	// Each gateway needs at least one interface before the tunnel so
	// the stack has a primary address.
	tunA := w.NetROMBackbone(bb, a, "NODEA", ip.MustAddr("44.0.0.1"))
	tunB := w.NetROMBackbone(bb, b, "NODEB", ip.MustAddr("44.0.0.2"))
	tunA.AddPeer(ip.MustAddr("44.0.0.2"), ax25.MustAddr("NODEB"))
	tunB.AddPeer(ip.MustAddr("44.0.0.1"), ax25.MustAddr("NODEA"))

	w.Run(3 * time.Minute) // NODES convergence
	if !tunA.Node().HasRoute(ax25.MustAddr("NODEB")) {
		t.Fatal("backbone nodes never learned each other")
	}
	var rtt time.Duration
	a.Stack.Ping(ip.MustAddr("44.0.0.2"), 32, func(_ uint16, d time.Duration, _ ip.Addr) { rtt = d })
	w.Run(2 * time.Minute)
	if rtt == 0 {
		t.Fatal("no IP connectivity over the tunnel")
	}
}
