package experiments

import (
	"fmt"
	"io"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/icmp"
	"packetradio/internal/ip"
	"packetradio/internal/radio"
	"packetradio/internal/tcp"
	"packetradio/internal/tnc"
	"packetradio/internal/world"
)

// E1 reproduces §3 ¶1: "Because the link speed is only 1200 bits per
// second, the transmission time is the dominant factor in determining
// throughput and latency." It sweeps link speed × datagram size,
// measuring ping RTT and the share of it that is pure airtime.
func E1(w io.Writer) *Result {
	r := newResult("E1")
	t := newTable(w, "E1", "ping PC->gateway: RTT and airtime share vs link speed")
	t.row("bps", "size(B)", "RTT(ms)", "airtime(ms)", "airtime share")

	for _, bps := range []int{300, 1200, 2400, 4800, 9600} {
		for _, size := range []int{64, 256, 576} {
			s := world.NewSeattle(world.SeattleConfig{Seed: 1, NumPCs: 1, BitRate: bps, Baud: 19200})
			pc := s.PCs[0]
			// Warm ARP.
			if _, ok := pingOnce(s.W, pc, world.GatewayIP, 8, 10*time.Minute); !ok {
				continue
			}
			rtt, ok := pingOnce(s.W, pc, world.GatewayIP, size, 10*time.Minute)
			if !ok {
				continue
			}
			// Echo payload rides in both directions; each leg's frame:
			// ICMP(8) + IP(20) + AX.25(16) + FCS(2).
			frame := size + 8 + ip.HeaderLen + 2*ax25.AddrLen + 2 + 2
			air := 2 * s.Channel.AirTime(frame)
			share := float64(air) / float64(rtt)
			t.row(bps, size, ms(rtt), ms(air), fmt.Sprintf("%.0f%%", share*100))
			if bps == 1200 && size == 256 {
				r.set("rtt_1200_256_ms", float64(rtt)/1e6)
				r.set("airtime_share_1200_256", share)
			}
			if bps == 9600 && size == 256 {
				r.set("rtt_9600_256_ms", float64(rtt)/1e6)
			}
		}
	}
	t.flush()
	return r
}

// Chatter generates background channel load on the Seattle channel: a
// pair of raw stations exchanging UI frames (not addressed to the
// gateway) at the interval that produces the requested fraction of
// channel capacity. E2 and prsim's -load use it; a load of 0 or less
// adds nothing.
func Chatter(s *world.Seattle, loadPct int) {
	if loadPct <= 0 {
		return
	}
	const frameLen = 120
	params := radio.Params{TXDelay: 300 * time.Millisecond, SlotTime: 100 * time.Millisecond, Persist: 0.25}
	a := s.Channel.Attach("CHAT1", params)
	b := s.Channel.Attach("CHAT2", params)
	b.SetReceiver(func([]byte, bool) {})
	a.SetReceiver(func([]byte, bool) {})
	f := ax25.NewUI(ax25.MustAddr("CHAT2"), ax25.MustAddr("CHAT1"), ax25.PIDNone, make([]byte, frameLen))
	enc, _ := f.Encode(nil)
	framed := ax25.AppendFCS(enc)
	// Offered airtime per frame (including keyup) over the interval
	// equals loadPct/100.
	per := s.Channel.AirTime(len(framed)) + params.TXDelay
	interval := time.Duration(float64(per) * 100 / float64(loadPct))
	s.W.Sched.Every(interval, func() {
		if a.QueueLen() < 4 { // don't build an infinite backlog
			a.Send(framed)
		}
	})
}

// E2 reproduces §3 ¶2: "the gateway slows considerably as traffic on
// the packet radio subnet climbs. Part of the reason ... is that the
// present code running inside the TNC passes every packet it receives
// to the packet radio driver regardless of the destination address" —
// and the paper's proposed fix, the address filter. The gateway's
// serial line runs at 600 baud (DZ lines of the era often ran slower
// than the radio channel); in promiscuous mode all channel traffic
// crosses it, queues ahead of real packets, and overflows the TNC's
// small buffer.
func E2(w io.Writer) *Result {
	r := newResult("E2")
	t := newTable(w, "E2", "ping PC->Internet host through gateway, serial 600 baud, 10 pings")
	t.row("load%", "TNC mode", "mean RTT(s)", "lost", "gw serial rx(B)", "TNC drops")

	run := func(loadPct int, filter tnc.FilterMode) (mean time.Duration, lost int, rxBytes, drops uint64) {
		s := world.NewSeattle(world.SeattleConfig{
			Seed: 3, NumPCs: 1, Baud: 600, TNCFilter: filter,
		})
		Chatter(s, loadPct)
		pc := s.PCs[0]
		// The PC's own TNC filters in both configurations so the
		// gateway's TNC mode is the only variable.
		pc.Radio("pr0").TNC.SetFilter(tnc.AddressFilter)
		// Warm up ARP before loading the channel heavily.
		pingOnce(s.W, pc, world.InternetIP, 8, 5*time.Minute)

		var total time.Duration
		got := 0
		const pings = 10
		for i := 0; i < pings; i++ {
			rtt, ok := pingOnce(s.W, pc, world.InternetIP, 64, 2*time.Minute)
			if ok {
				total += rtt
				got++
			}
			s.W.Run(5 * time.Second)
		}
		if got > 0 {
			mean = total / time.Duration(got)
		}
		gwPort := s.Gateway.Radio("pr0")
		return mean, pings - got, gwPort.Driver.DStats.BytesFed, gwPort.TNC.Stats.HostDrops
	}

	for _, load := range []int{0, 20, 40, 60, 80} {
		for _, mode := range []tnc.FilterMode{tnc.Promiscuous, tnc.AddressFilter} {
			name := "promiscuous"
			if mode == tnc.AddressFilter {
				name = "filtered"
			}
			mean, lost, rx, drops := run(load, mode)
			t.row(load, name, sec(mean), lost, rx, drops)
			key := fmt.Sprintf("rtt_s_load%d_%s", load, name)
			r.set(key, mean.Seconds())
			if load == 60 {
				r.set("drops_load60_"+name, float64(drops))
			}
		}
	}
	t.flush()
	fmt.Fprintln(w, "   (promiscuous: every heard frame crosses the 600-baud line and")
	fmt.Fprintln(w, "    competes with gateway traffic; the filter suppresses them in the TNC)")
	return r
}

// E3 reproduces §4.1: Ethernet-side hosts with short timeouts
// "initially retransmit packets several times before a response makes
// it back", wasting bandwidth and delaying other packets; adaptive
// implementations learn the correct timeout. A 4 KB transfer from the
// Internet host to a radio PC under three retransmission policies.
func E3(w io.Writer) *Result {
	r := newResult("E3")
	t := newTable(w, "E3", "4KB TCP transfer Internet->PC0; competing ping from PC1")
	t.row("RTO policy", "time(s)", "rexmits", "dup bytes at rcvr", "final RTO(s)", "competing RTT(s)")

	run := func(name string, cfg tcp.Config) {
		s := world.NewSeattle(world.SeattleConfig{Seed: 5, NumPCs: 2})
		inetTCP := tcp.New(s.Internet.Stack)
		pcTCP := tcp.New(s.PCs[0].Stack)
		pcTCP.DefaultConfig = tcp.Config{Mode: tcp.RTOAdaptive, MSS: 216}

		// Warm up ARP on both radio hosts.
		pingOnce(s.W, s.PCs[0], world.GatewayIP, 8, 5*time.Minute)
		pingOnce(s.W, s.PCs[1], world.GatewayIP, 8, 5*time.Minute)

		var rcvd int
		var rcvdConn *tcp.Conn
		pcTCP.Listen(5001, func(c *tcp.Conn) {
			rcvdConn = c
			c.OnData = func(p []byte) { rcvd += len(p) }
		})
		cfg.MSS = 216
		inetTCP.DefaultConfig = cfg
		conn := inetTCP.Dial(world.PCIP(0), 5001)
		payload := make([]byte, 4096)
		start := s.W.Sched.Now()
		conn.OnConnect = func() { conn.Send(payload) }

		// Competing traffic: PC1 pings the gateway repeatedly.
		var competeTotal time.Duration
		competeN := 0
		done := false
		var pingLoop func()
		pingLoop = func() {
			if done {
				return
			}
			s.PCs[1].Stack.Ping(world.GatewayIP, 32, func(_ uint16, d time.Duration, _ ip.Addr) {
				competeTotal += d
				competeN++
				s.W.Sched.After(5*time.Second, pingLoop)
			})
		}
		pingLoop()

		deadline := start.Add(30 * time.Minute)
		for rcvd < len(payload) && s.W.Sched.Now() < deadline {
			s.W.Run(10 * time.Second)
		}
		done = true
		elapsed := s.W.Sched.Now().Sub(start)
		var dup uint64
		if rcvdConn != nil {
			dup = rcvdConn.Stats.DupBytes
		}
		compete := time.Duration(0)
		if competeN > 0 {
			compete = competeTotal / time.Duration(competeN)
		}
		t.row(name, sec(elapsed), conn.Stats.Retransmits, dup,
			fmt.Sprintf("%.1f", conn.Stats.CurrentRTO.Seconds()), sec(compete))
		key := name
		r.set("time_s_"+key, elapsed.Seconds())
		r.set("rexmit_"+key, float64(conn.Stats.Retransmits))
		r.set("dup_bytes_"+key, float64(dup))
		r.set("compete_rtt_s_"+key, compete.Seconds())
	}

	run("fixed-1.5s", tcp.Config{Mode: tcp.RTOFixed, MaxRetries: 200})
	run("adaptive", tcp.Config{Mode: tcp.RTOAdaptive})
	run("adaptive+slowstart", tcp.Config{Mode: tcp.RTOAdaptive, SlowStart: true})
	t.flush()
	fmt.Fprintln(w, "   (fixed short RTO keeps resending into the 1200 bps queue; the")
	fmt.Fprintln(w, "    adaptive policy learns the path RTT and stops wasting airtime)")
	return r
}

// E4 reproduces §4.2: with AMPRnet a single class A network, "most
// systems will maintain only a single route for it. All packets
// destined for AMPRnet ... must pass through a single gateway", even
// when a regional gateway is one hop away. We compare the forced
// single-gateway path (west gateway, then a 1200 bps NET/ROM backbone
// crossing to the east) against per-region routes.
func E4(w io.Writer) *Result {
	r := newResult("E4")
	t := newTable(w, "E4", "ping Internet host -> east-coast PC (44.56.0.10)")
	t.row("routing", "RTT(s)", "path")

	build := func(regional bool) (*backboneWorld, time.Duration, bool) {
		bw := newBackboneWorld(7)
		if regional {
			// The fix the paper wishes for: per-region routes.
			bw.inet.Stack.Routes.AddNet(ip.MustAddr("44.24.0.0"), ip.MaskClassB, bw.westGWEther, "qe0")
			bw.inet.Stack.Routes.AddNet(ip.MustAddr("44.56.0.0"), ip.MaskClassB, bw.eastGWEther, "qe0")
		} else {
			// 1988 reality: one route for all of net 44.
			bw.inet.Stack.Routes.AddNet(ip.MustAddr("44.0.0.0"), ip.MaskClassA, bw.westGWEther, "qe0")
		}
		rtt, ok := pingOnce(bw.w, bw.inet, bw.eastPCIP, 64, 30*time.Minute)
		return bw, rtt, ok
	}

	if _, rtt, ok := build(false); ok {
		t.row("single 44/8 route", sec(rtt), "inet->west-gw->NET/ROM backbone->east-gw->radio")
		r.set("single_rtt_s", rtt.Seconds())
	}
	if _, rtt, ok := build(true); ok {
		t.row("regional routes", sec(rtt), "inet->east-gw->radio")
		r.set("regional_rtt_s", rtt.Seconds())
	}
	t.flush()
	if r.Get("regional_rtt_s") > 0 {
		fmt.Fprintf(w, "   path stretch of the single-route configuration: %.1fx\n",
			r.Get("single_rtt_s")/r.Get("regional_rtt_s"))
		r.set("stretch", r.Get("single_rtt_s")/r.Get("regional_rtt_s"))
	}
	return r
}

// E5 reproduces §4.3 end to end: the authorization table life cycle
// with every transition the paper describes.
func E5(w io.Writer) *Result {
	r := newResult("E5")
	s := world.NewSeattle(world.SeattleConfig{Seed: 9, NumPCs: 1, WithACL: true})
	acl := s.GatewayGW.ACL
	acl.IdleTTL = 5 * time.Minute
	acl.Operators["N7AKR"] = "hamgate"
	pc := s.PCs[0]

	t := newTable(w, "E5", "event timeline (idle TTL 5 min)")
	t.row("t(min)", "event", "result", "table size")
	logRow := func(event, result string) {
		t.row(fmt.Sprintf("%.1f", s.W.Sched.Now().Seconds()/60), event, result, acl.Len())
	}
	okStr := func(ok bool, y, n string) string {
		if ok {
			return y
		}
		return n
	}

	// 1. Unsolicited inbound: blocked.
	_, ok := pingOnce(s.W, s.Internet, world.PCIP(0), 32, 2*time.Minute)
	logRow("inbound ping (unsolicited)", okStr(ok, "ALLOWED (bug!)", "blocked"))
	blocked1 := !ok

	// 2. Amateur-originated traffic opens the reverse path.
	_, ok = pingOnce(s.W, pc, world.InternetIP, 32, 2*time.Minute)
	logRow("outbound ping from PC", okStr(ok, "delivered, entry auto-added", "FAILED"))

	_, ok = pingOnce(s.W, s.Internet, world.PCIP(0), 32, 2*time.Minute)
	logRow("inbound ping (after outbound)", okStr(ok, "allowed", "BLOCKED (bug!)"))
	allowed1 := ok

	// 3. Idle expiry.
	s.W.Run(12 * time.Minute)
	_, ok = pingOnce(s.W, s.Internet, world.PCIP(0), 32, 2*time.Minute)
	logRow("inbound ping (after idle TTL)", okStr(ok, "ALLOWED (bug!)", "blocked again"))
	blocked2 := !ok

	// 4. ICMP add from the non-amateur side with operator credentials.
	add := icmp.NewAuthAdd(&icmp.AuthPayload{
		TTLSeconds: 600, Amateur: world.PCIP(0), NonAmateur: world.InternetIP,
		Callsign: "N7AKR", Password: "hamgate",
	})
	s.Internet.Stack.Send(ip.ProtoICMP, ip.Addr{}, world.GatewayEtherIP, add.Marshal(), 0, 0)
	s.W.Run(time.Minute)
	_, ok = pingOnce(s.W, s.Internet, world.PCIP(0), 32, 2*time.Minute)
	logRow("ICMP auth-add (with password)", okStr(ok, "allowed", "BLOCKED (bug!)"))
	allowed2 := ok

	// 5. Control-operator cutoff from the amateur side.
	del := icmp.NewAuthDel(&icmp.AuthPayload{Amateur: world.PCIP(0), NonAmateur: world.InternetIP})
	pc.Stack.Send(ip.ProtoICMP, ip.Addr{}, world.GatewayIP, del.Marshal(), 0, 0)
	s.W.Run(2 * time.Minute)
	_, ok = pingOnce(s.W, s.Internet, world.PCIP(0), 32, 2*time.Minute)
	logRow("ICMP auth-del (operator cutoff)", okStr(ok, "ALLOWED (bug!)", "blocked"))
	blocked3 := !ok

	t.flush()
	fmt.Fprintf(w, "   table stats: %+v\n", acl.Stats)
	r.set("lifecycle_correct", b2f(blocked1 && allowed1 && blocked2 && allowed2 && blocked3))
	r.set("blocked_total", float64(acl.Stats.Blocked))
	r.set("auto_added", float64(acl.Stats.AutoAdded))
	return r
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
