package experiments

import (
	"fmt"
	"io"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/ftp"
	"packetradio/internal/ip"
	"packetradio/internal/radio"
	"packetradio/internal/sim"
	"packetradio/internal/smtp"
	"packetradio/internal/tcp"
	"packetradio/internal/telnet"
	"packetradio/internal/world"
)

// E6 quantifies §1's digipeater mechanism: every hop re-transmits the
// frame on the same frequency, so a path through n digipeaters costs
// (n+1)× the airtime and at least (n+1)× the latency.
func E6(w io.Writer) *Result {
	r := newResult("E6")
	t := newTable(w, "E6", "ping A->B via n digipeaters, 200-byte datagrams (single frame), one channel")
	t.row("digis", "RTT(s)", "vs direct")

	var direct time.Duration
	for _, hops := range []int{0, 1, 2, 4, 8} {
		wd := world.New(11)
		ch := wd.Channel("145.01", 0)
		a := wd.Host("a")
		a.AttachRadio(ch, "pr0", "AAA", ip.MustAddr("44.24.0.1"), ip.MaskClassA, world.RadioConfig{})
		b := wd.Host("b")
		b.AttachRadio(ch, "pr0", "BBB", ip.MustAddr("44.24.0.2"), ip.MaskClassA, world.RadioConfig{})

		// Chain reachability: a - d1 - d2 - ... - dn - b.
		var digis []*radio.Transceiver
		var path []ax25.Addr
		for i := 0; i < hops; i++ {
			call := fmt.Sprintf("RLY%d", i+1)
			d := wd.Digipeater(ch, call)
			_ = d
			path = append(path, ax25.MustAddr(call))
			digis = append(digis, ch.Stations()[len(ch.Stations())-1])
		}
		if hops > 0 {
			// Cut every non-adjacent pair in the chain a,d1..dn,b.
			chain := append([]*radio.Transceiver{a.Radio("pr0").RF}, digis...)
			chain = append(chain, b.Radio("pr0").RF)
			for i := range chain {
				for j := range chain {
					if i != j && absInt(i-j) > 1 {
						ch.SetReachable(chain[i], chain[j], false)
					}
				}
			}
		}
		// Static ARP + source route in both directions.
		da, db := a.Radio("pr0").Driver, b.Radio("pr0").Driver
		da.Resolver().AddStatic(ip.MustAddr("44.24.0.2"), ax25.MustAddr("BBB").HW())
		db.Resolver().AddStatic(ip.MustAddr("44.24.0.1"), ax25.MustAddr("AAA").HW())
		if hops > 0 {
			da.SetPath(ip.MustAddr("44.24.0.2"), path...)
			rev := make([]ax25.Addr, len(path))
			for i := range path {
				rev[len(path)-1-i] = path[i]
			}
			db.SetPath(ip.MustAddr("44.24.0.1"), rev...)
		}
		// 200-byte payload keeps the datagram in a single AX.25 frame.
		// (A 256-byte ping fragments in two, and on chains of >=2 hops
		// the source and the second digipeater are hidden terminals:
		// fragment 2 collides with the repeat of fragment 1 and the
		// unretransmitted ICMP never completes — a real packet-radio
		// failure mode worth knowing about.)
		rtt, ok := pingOnce(wd, a, ip.MustAddr("44.24.0.2"), 200, 30*time.Minute)
		if !ok {
			t.row(hops, "lost", "-")
			continue
		}
		if hops == 0 {
			direct = rtt
		}
		t.row(hops, sec(rtt), fmt.Sprintf("%.1fx", float64(rtt)/float64(direct)))
		r.set(fmt.Sprintf("rtt_s_%ddigis", hops), rtt.Seconds())
	}
	t.flush()
	return r
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// E7 measures the §2.3 ARP path: the cost of the first (cold) contact
// versus cached resolution, and re-resolution after expiry.
func E7(w io.Writer) *Result {
	r := newResult("E7")
	s := world.NewSeattle(world.SeattleConfig{Seed: 13, NumPCs: 1})
	pc := s.PCs[0]
	res := pc.Radio("pr0").Driver.Resolver()
	res.CacheTTL = 10 * time.Minute

	t := newTable(w, "E7", "ping PC->gateway, 64-byte datagrams")
	t.row("state", "RTT(s)", "ARP requests so far")

	cold, _ := pingOnce(s.W, pc, world.GatewayIP, 64, 10*time.Minute)
	t.row("cold (ARP + echo)", sec(cold), res.Stats.Requests)
	warm, _ := pingOnce(s.W, pc, world.GatewayIP, 64, 10*time.Minute)
	t.row("warm (cached)", sec(warm), res.Stats.Requests)

	s.W.Run(15 * time.Minute) // expire the cache
	again, _ := pingOnce(s.W, pc, world.GatewayIP, 64, 10*time.Minute)
	t.row("after cache expiry", sec(again), res.Stats.Requests)
	t.flush()
	fmt.Fprintf(w, "   resolver stats: %+v\n", res.Stats)

	r.set("cold_rtt_s", cold.Seconds())
	r.set("warm_rtt_s", warm.Seconds())
	r.set("arp_requests", float64(res.Stats.Requests))
	return r
}

// E8 reproduces §2.4's NET/ROM plan: IP between two radio subnets over
// the backbone, including how long NODES broadcasts take to converge.
func E8(w io.Writer) *Result {
	r := newResult("E8")
	t := newTable(w, "E8", "two-coast world, 1200 bps backbone (SEA-MID-TAC line)")
	t.row("quantity", "value")

	bw := newBackboneWorldOpt(17, true)
	t.row("NODES convergence (SEA learns TAC via MID)", sec(bw.convergence)+"s")
	r.set("convergence_s", bw.convergence.Seconds())

	rtt, ok := pingOnce(bw.w, bw.westPC, bw.eastPCIP, 64, 30*time.Minute)
	if ok {
		t.row("ping west PC -> east PC (4 radio hops)", sec(rtt)+"s")
		r.set("cross_rtt_s", rtt.Seconds())
	} else {
		t.row("ping west PC -> east PC", "LOST")
	}
	// Local comparison: one radio hop.
	local, ok2 := pingOnce(bw.w, bw.westPC, ip.MustAddr("44.24.0.28"), 64, 10*time.Minute)
	if ok2 {
		t.row("ping west PC -> own gateway (1 radio hop)", sec(local)+"s")
		r.set("local_rtt_s", local.Seconds())
	}
	t.row("MID node L3 forwards", bw.midNode.Stats.L3Forwarded)
	r.set("mid_forwards", float64(bw.midNode.Stats.L3Forwarded))
	t.flush()
	return r
}

// E9 reproduces §2.3/§5: "Telnet, FTP, and SMTP have all been
// successfully used across the gateway" — all three services, both
// directions.
func E9(w io.Writer) *Result {
	r := newResult("E9")
	s := world.NewSeattle(world.SeattleConfig{Seed: 19, NumPCs: 1})
	pc := s.PCs[0]
	radioCfg := tcp.Config{Mode: tcp.RTOAdaptive, MSS: 216}

	// Every service runs on the hosts' socket layers — the same API an
	// unmodified 1988 application would have used.
	inetSL := s.Internet.Sockets()
	inetSL.StreamDefaults = radioCfg
	pcSL := pc.Sockets()
	pcSL.StreamDefaults = radioCfg

	// Services on the Internet host.
	telnet.Serve(inetSL, &telnet.Server{Hostname: "june"})
	fileData := make([]byte, 2048)
	ftp.Serve(inetSL, &ftp.Server{Hostname: "june", Files: ftp.FS{"paper.txt": fileData}})
	inetMail := &smtp.Server{Hostname: "june"}
	smtp.Serve(inetSL, inetMail)
	// And an SMTP server on the PC for the reverse direction.
	pcMail := &smtp.Server{Hostname: "pc1"}
	smtp.Serve(pcSL, pcMail)

	pingOnce(s.W, pc, world.InternetIP, 8, 5*time.Minute) // warm ARP

	t := newTable(w, "E9", "services across the gateway (radio PC <-> Internet host)")
	t.row("service", "direction", "result", "time(s)")

	// Telnet: radio -> Internet, one command round trip.
	cl := telnet.DialClient(pcSL, world.InternetIP)
	start := s.W.Sched.Now()
	s.W.Run(3 * time.Minute)
	cl.SendLine("echo hello")
	mark := cl.Output.Len()
	echoStart := s.W.Sched.Now()
	for i := 0; i < 60 && cl.Output.Len() == mark; i++ {
		s.W.Run(5 * time.Second)
	}
	keystrokeRTT := s.W.Sched.Now().Sub(echoStart)
	loginTime := echoStart.Sub(start)
	t.row("telnet", "radio->inet", "login+shell ok", sec(loginTime))
	t.row("telnet", "radio->inet", "command echo", sec(keystrokeRTT))
	r.set("telnet_echo_s", keystrokeRTT.Seconds())
	cl.SendLine("logout")
	s.W.Run(2 * time.Minute)

	// FTP: download then upload (both directions of bulk data).
	fcl := ftp.Dial(pcSL, world.InternetIP)
	done := false
	fcl.OnComplete = func() { done = true }
	fcl.Get("paper.txt")
	fcl.Put("fromradio.txt", make([]byte, 2048))
	fcl.Quit()
	start = s.W.Sched.Now()
	for i := 0; i < 360 && !done; i++ {
		s.W.Run(10 * time.Second)
	}
	dur := s.W.Sched.Now().Sub(start)
	gotFile, _ := fcl.File("paper.txt")
	okStr := "ok"
	if len(gotFile) != len(fileData) || !done {
		okStr = "FAILED"
	}
	t.row("ftp", "both (2KB each way)", okStr, sec(dur))
	if dur > 0 {
		r.set("ftp_goodput_bps", 2*2048*8/dur.Seconds())
		t.row("ftp", "goodput", fmt.Sprintf("%.0f bit/s", 2*2048*8/dur.Seconds()), "-")
	}

	// SMTP: radio -> Internet.
	sent := false
	smtp.Send(pcSL, world.InternetIP,
		smtp.Message{From: "op@pc1", To: "bcn@june", Body: "hello from the radio side"},
		func(res smtp.Result) { sent = res.OK })
	start = s.W.Sched.Now()
	for i := 0; i < 120 && !sent; i++ {
		s.W.Run(10 * time.Second)
	}
	t.row("smtp", "radio->inet", okFail(sent && len(inetMail.Mailboxes["bcn"]) == 1), sec(s.W.Sched.Now().Sub(start)))
	r.set("smtp_out_ok", b2f(sent))

	// SMTP: Internet -> radio.
	sent = false
	smtp.Send(inetSL, world.PCIP(0),
		smtp.Message{From: "bcn@june", To: "op@pc1", Body: "hello from the internet side"},
		func(res smtp.Result) { sent = res.OK })
	start = s.W.Sched.Now()
	for i := 0; i < 120 && !sent; i++ {
		s.W.Run(10 * time.Second)
	}
	t.row("smtp", "inet->radio", okFail(sent && len(pcMail.Mailboxes["op"]) == 1), sec(s.W.Sched.Now().Sub(start)))
	r.set("smtp_in_ok", b2f(sent))
	t.flush()
	return r
}

func okFail(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAILED"
}

// E10 validates the channel substrate under §3's congestion regime:
// goodput and collision rate versus offered load on a shared
// p-persistent CSMA channel.
func E10(w io.Writer) *Result {
	r := newResult("E10")
	t := newTable(w, "E10", "6 stations, 120-byte frames, Poisson arrivals, 30 min simulated")
	t.row("offered load", "goodput", "collision pairs", "deferrals")

	for _, offered := range []int{10, 30, 50, 70, 90, 120} {
		sched := sim.NewScheduler(int64(offered))
		ch := radio.NewChannel(sched, 1200)
		const n = 6
		const frameLen = 120
		params := radio.DefaultParams()
		var stations []*radio.Transceiver
		heard := 0
		for i := 0; i < n; i++ {
			s := ch.Attach(fmt.Sprintf("S%d", i), params)
			s.SetReceiver(func(_ []byte, damaged bool) {
				if !damaged {
					heard++
				}
			})
			stations = append(stations, s)
		}
		frame := ax25.AppendFCS(make([]byte, frameLen))
		perFrame := ch.AirTime(len(frame)) + params.TXDelay
		rate := float64(offered) / 100 / perFrame.Seconds() // frames/s aggregate
		perStation := rate / n
		for _, s := range stations {
			s := s
			var schedule func()
			schedule = func() {
				gap := time.Duration(sched.Rand().ExpFloat64() / perStation * float64(time.Second))
				sched.After(gap, func() {
					if s.QueueLen() < 8 {
						s.Send(frame)
					}
					schedule()
				})
			}
			schedule()
		}
		const dur = 30 * time.Minute
		sched.RunUntil(sim.Time(dur))
		// Each intact frame is heard by n-1 receivers.
		delivered := float64(heard) / float64(n-1)
		goodput := delivered * perFrame.Seconds() / dur.Seconds()
		t.row(fmt.Sprintf("%d%%", offered), fmt.Sprintf("%.0f%%", goodput*100),
			ch.Stats.CollisionPairs, sumDeferrals(stations))
		r.set(fmt.Sprintf("goodput_at_%d", offered), goodput)
	}
	t.flush()
	fmt.Fprintln(w, "   (goodput rises with load, then collisions take over — the §3 regime)")
	return r
}

func sumDeferrals(stations []*radio.Transceiver) uint64 {
	var n uint64
	for _, s := range stations {
		// The accessor, not the raw field: E10 reads mid-contention at
		// the window cutoff, where event-driven CSMA has parked slots
		// not yet settled into Stats.
		n += s.CSMADeferrals()
	}
	return n
}
