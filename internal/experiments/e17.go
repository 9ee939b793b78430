package experiments

import (
	"fmt"
	"io"
	"time"

	"packetradio/internal/rdm"
	"packetradio/internal/sim"
	"packetradio/internal/socket"
	"packetradio/internal/world"
)

// TransferPoint is one deterministic E17 measurement: 2 KB pushed from
// the Internet host to a radio PC across the gateway and the 1200 bps
// channel, under one transport and one radio MTU. Everything is a pure
// function of the seed, so the delivery counts gate exactly in CI.
type TransferPoint struct {
	Transport string // "tcp" or "rdm"
	MTU       int

	Seconds      float64
	GoodputBPS   float64
	AirtimeShare float64 // channel airtime during the transfer / elapsed time
	Delivered    uint64  // rdm: messages delivered to the PC; tcp: 1 on completion
	PktsOut      uint64  // transport packets the sender emitted (incl. rexmits/acks)
	Resent       uint64  // rdm: data retransmissions (tcp's counter is per-conn, not surfaced)
}

const (
	e17Bytes    = 2048
	e17MsgBytes = 512 // rdm: 2 KB as 4 ReliableOrdered messages
)

// TransferRun steps the E17 world: the Seattle scenario (seed 1, one
// PC) with every radio port at the given MTU, one transfer of 2 KB
// from the Internet host to the PC over the named transport. The clock
// starts at the first write — like the TCP bench, the handshake (or
// its absence) is part of what is being measured.
func TransferRun(transport string, mtu int) TransferPoint {
	s := world.NewSeattle(world.SeattleConfig{Seed: 1, NumPCs: 1, RadioMTU: mtu})
	inetSL := s.Internet.Sockets()
	pcSL := s.PCs[0].Sockets()
	pt := TransferPoint{Transport: transport, MTU: mtu}

	// Warm the ARP path end to end before the clock starts. The radio
	// driver holds a single datagram per unresolved address (the 1988
	// one-mbuf hold queue), so a cold-start burst would lose its head
	// to RFC 826 rather than to the transport under test; TCP's SYN
	// warms the path implicitly, RDM's first data packet pays for it.
	// One echo resolves every hop for both cells alike.
	s.Internet.Stack.Ping(world.PCIP(0), 8, nil)
	s.W.Run(time.Minute)

	received := 0
	done := false
	var start, doneAt sim.Time
	var airStart time.Duration
	count := func(n int) {
		received += n
		if received >= e17Bytes && !done {
			done = true
			doneAt = s.W.Sched.Now()
		}
	}

	switch transport {
	case "tcp":
		// The Internet host has no radio, so its MSS does not derive
		// from the path MTU on its own — pin it, as the paper's hosts
		// did, to avoid gateway fragmentation of every segment.
		inetSL.StreamDefaults.MSS = mtu - 40
		ln, err := pcSL.Listen(9000, 5)
		if err != nil {
			panic(err)
		}
		socket.AcceptLoop(ln, func(sock *socket.Socket) {
			socket.Pump(sock, func(p []byte) { count(len(p)) }, nil)
		})
		conn := inetSL.Dial(world.PCIP(0), 9000)
		w := socket.NewWriter(conn)
		start = s.W.Sched.Now()
		airStart = s.Channel.Stats.Airtime
		w.Write(make([]byte, e17Bytes))
	case "rdm":
		// Same asymmetry for RDM: a radio-less host defaults to the
		// generic profile, whose 1 s RTO floor would retransmit into
		// every multi-second radio RTT.
		inetSL.RDMDefaults = rdm.RadioProfile()
		ln, err := pcSL.ListenRDM(9000)
		if err != nil {
			panic(err)
		}
		socket.AcceptLoopRDM(ln, func(sock *socket.Socket) {
			drain := func() {
				for {
					d, err := sock.RecvMsg()
					if err != nil {
						return
					}
					count(len(d.Data))
				}
			}
			sock.OnReadable = drain
			drain()
		})
		conn, err := inetSL.DialRDM(world.PCIP(0), 9000)
		if err != nil {
			panic(err)
		}
		start = s.W.Sched.Now()
		airStart = s.Channel.Stats.Airtime
		for i := 0; i < e17Bytes/e17MsgBytes; i++ {
			if _, err := conn.SendMsg(rdm.ReliableOrdered, make([]byte, e17MsgBytes)); err != nil {
				panic(err)
			}
		}
	default:
		panic("E17: unknown transport " + transport)
	}

	for !done && s.W.Sched.Now().Sub(start) < 30*time.Minute {
		s.W.Run(5 * time.Second)
	}
	if !done {
		panic(fmt.Sprintf("E17 %s transfer at MTU %d did not complete", transport, mtu))
	}

	elapsed := doneAt.Sub(start)
	pt.Seconds = elapsed.Seconds()
	pt.GoodputBPS = float64(e17Bytes*8) / pt.Seconds
	pt.AirtimeShare = float64(s.Channel.Stats.Airtime-airStart) / float64(elapsed)
	switch transport {
	case "tcp":
		pt.Delivered = 1
		pt.PktsOut = inetSL.TCPActive().Stats.SegsOut
	case "rdm":
		st := &inetSL.RDMActive().Stats
		pt.Delivered = pcSL.RDMActive().Stats.Delivered
		pt.PktsOut = st.Sent + st.Resent + st.AcksOut + st.NaksOut
		pt.Resent = st.Resent
	}
	return pt
}

// E17 compares SOCK_RDM against TCP on the path both were built for:
// 2 KB Internet -> radio PC across the 1200 bps channel. TCP pays a
// three-way handshake (two channel crossings before the first data
// byte), 40 bytes of header per segment, and cumulative-ACK clocking
// that widens every loss-free exchange to a full multi-second RTT. RDM
// sends data in its first packet, spends 34 bytes of IP+RDM header per
// message, and lets one coalesced SACK cover the whole 2 KB — so the
// same bytes cross the same channel in well under half the time. The
// MTU axis separates transport overhead from framing overhead: both
// transports gain from 576-byte frames on a clean channel, but TCP's
// per-segment tax shrinks with larger segments while RDM's was small
// to begin with. The acceptance bar is the ISSUE's: Reliable-mode RDM
// goodput at least 2x TCP's committed 406 bps baseline.
func E17(w io.Writer) *Result {
	r := newResult("E17")
	t := newTable(w, "E17", "2 KB Internet -> radio PC, Seattle world, per transport x radio MTU")
	t.row("mtu", "transport", "time", "goodput", "airtime share", "pkts out", "resent", "delivered")
	for _, mtu := range []int{256, 576} {
		for _, tr := range []string{"tcp", "rdm"} {
			pt := TransferRun(tr, mtu)
			key := fmt.Sprintf("_%s_mtu%d", tr, mtu)
			r.set("goodput_bps"+key, pt.GoodputBPS)
			r.set("seconds"+key, pt.Seconds)
			r.set("airtime_share"+key, pt.AirtimeShare)
			r.set("pkts_out"+key, float64(pt.PktsOut))
			r.set("delivered"+key, float64(pt.Delivered))
			if tr == "rdm" {
				r.set("resent"+key, float64(pt.Resent))
			}
			resent := fmt.Sprintf("%d", pt.Resent)
			if tr == "tcp" {
				resent = "-"
			}
			delivered := fmt.Sprintf("%d msgs", pt.Delivered)
			if tr == "tcp" {
				delivered = "stream ok"
			}
			t.row(mtu, tr, fmt.Sprintf("%.1fs", pt.Seconds),
				fmt.Sprintf("%.0f bps", pt.GoodputBPS),
				fmt.Sprintf("%.0f%%", pt.AirtimeShare*100),
				pt.PktsOut, resent, delivered)
		}
	}
	t.flush()
	fmt.Fprintln(w, "   (no handshake + per-message SACK is the whole story: fewer channel")
	fmt.Fprintln(w, "    crossings before and after the data, and no RTT-clocked ACK ladder;")
	fmt.Fprintln(w, "    the airtime-share column shows RDM also idles the channel sooner)")
	return r
}
