// Benchmarks regenerating every figure and evaluation claim in the
// paper (go test -bench=. -benchmem). Each BenchmarkF*/BenchmarkE*
// target runs the corresponding experiment from internal/experiments
// and reports its headline metrics; the micro-benchmarks below them
// measure the hot codec and simulation paths.
package packetradio

import (
	"fmt"
	"io"
	"testing"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/experiments"
	"packetradio/internal/ip"
	"packetradio/internal/kiss"
	"packetradio/internal/route"
	"packetradio/internal/rspf"
	"packetradio/internal/sim"
	"packetradio/internal/tcp"
	"packetradio/internal/world"
)

func reportMetrics(b *testing.B, r *experiments.Result, keys ...string) {
	b.Helper()
	for _, k := range keys {
		b.ReportMetric(r.Get(k), k)
	}
}

// BenchmarkF1HardwarePath regenerates Figure 1 as a latency
// decomposition of the Radio–TNC–RS232–Host chain.
func BenchmarkF1HardwarePath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.F1(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "one_way_ms", "airtime_ms")
		}
	}
}

// BenchmarkF2LayerOverhead regenerates Figure 2 as per-layer byte
// overhead.
func BenchmarkF2LayerOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.F2(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "keystroke_onair_bytes", "block_efficiency_pct")
		}
	}
}

// BenchmarkE1LinkSpeed: §3, transmission time dominates.
func BenchmarkE1LinkSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E1(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "rtt_1200_256_ms", "airtime_share_1200_256")
		}
	}
}

// BenchmarkE2GatewayLoad: §3, gateway slowdown and the TNC filter fix.
func BenchmarkE2GatewayLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E2(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "rtt_s_load60_promiscuous", "rtt_s_load60_filtered")
		}
	}
}

// BenchmarkE3Timeouts: §4.1, fixed vs adaptive RTO.
func BenchmarkE3Timeouts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E3(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "dup_bytes_fixed-1.5s", "dup_bytes_adaptive")
		}
	}
}

// BenchmarkE4Routing: §4.2, single class-A route vs regional gateways.
func BenchmarkE4Routing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E4(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "single_rtt_s", "regional_rtt_s", "stretch")
		}
	}
}

// BenchmarkE5AccessControl: §4.3 table life cycle.
func BenchmarkE5AccessControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E5(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "lifecycle_correct", "blocked_total")
		}
	}
}

// BenchmarkE6Digipeaters: §1 source routing cost per hop.
func BenchmarkE6Digipeaters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E6(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "rtt_s_0digis", "rtt_s_8digis")
		}
	}
}

// BenchmarkE7ARP: §2.3 AX.25 ARP cold vs warm.
func BenchmarkE7ARP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E7(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "cold_rtt_s", "warm_rtt_s")
		}
	}
}

// BenchmarkE8NetROM: §2.4 IP over the NET/ROM backbone.
func BenchmarkE8NetROM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E8(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "convergence_s", "cross_rtt_s")
		}
	}
}

// BenchmarkE9Services: §2.3/§5 telnet, FTP, SMTP across the gateway.
func BenchmarkE9Services(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E9(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "telnet_echo_s", "ftp_goodput_bps")
		}
	}
}

// BenchmarkE10Channel: CSMA substrate capacity curve.
func BenchmarkE10Channel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E10(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "goodput_at_10", "goodput_at_120")
		}
	}
}

// --- Substrate micro-benchmarks -------------------------------------------

func BenchmarkKISSEncode(b *testing.B) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i) // includes FEND/FESC values
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	var dst []byte
	for i := 0; i < b.N; i++ {
		dst = kiss.Encode(dst[:0], 0, payload)
	}
}

func BenchmarkKISSDecode(b *testing.B) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	enc := kiss.Encode(nil, 0, payload)
	d := kiss.Decoder{Frame: func(kiss.Frame) {}}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range enc {
			d.PutByte(c)
		}
	}
}

func BenchmarkAX25EncodeDecode(b *testing.B) {
	f := ax25.NewUI(ax25.MustAddr("KD7NM"), ax25.MustAddr("N7AKR-2"), ax25.PIDIP, make([]byte, 216)).
		Via(ax25.MustAddr("RELAY"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc, err := f.Encode(nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ax25.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFCS(b *testing.B) {
	data := make([]byte, 256)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		ax25.FCS(data)
	}
}

func BenchmarkIPMarshalUnmarshal(b *testing.B) {
	p := &ip.Packet{
		Header:  ip.Header{TTL: 30, Proto: ip.ProtoTCP, ID: 1, Src: ip.MustAddr("44.24.0.1"), Dst: ip.MustAddr("128.95.1.2")},
		Payload: make([]byte, 216),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := p.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ip.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPSegmentMarshal(b *testing.B) {
	src, dst := ip.MustAddr("1.1.1.1"), ip.MustAddr("2.2.2.2")
	seg := &tcp.Segment{SrcPort: 1024, DstPort: 23, Seq: 1, Ack: 2, Flags: tcp.FlagACK, Window: 2048, Payload: make([]byte, 216)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := seg.Marshal(src, dst)
		if _, err := tcp.Unmarshal(src, dst, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerEventLoop(b *testing.B) {
	s := sim.NewScheduler(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, func() {})
		s.Step()
	}
}

// BenchmarkSeattlePing measures simulator throughput end to end: one
// full ping through the complete Figure-1 chain per iteration.
func BenchmarkSeattlePing(b *testing.B) {
	_, ping := warmSeattle(world.MACCSMA, false) // ARP warm outside the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ping() {
			b.Fatal("ping lost")
		}
	}
}

// BenchmarkNewLarge measures construction: one operation builds a
// 1,000-station, 40-channel single-loop world with its probers armed.
// Its bytes per operation count no random generator, since every
// stream builds its generator at its first draw (sim.Stream).
func BenchmarkNewLarge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		world.NewLarge(world.LargeConfig{
			Seed: int64(i + 1), Stations: 1000, Channels: 40, PingInterval: time.Minute,
		})
	}
}

// BenchmarkE11Failover: RSPF reconvergence after gateway failure vs
// the static-route blackhole.
func BenchmarkE11Failover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E11(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "rspf_convergence_s", "rspf_delivered_after_fail")
		}
	}
}

// BenchmarkE12RoutingOverhead: RSPF control-plane airtime on 1200 bps.
func BenchmarkE12RoutingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E12(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "util_pct_hello10", "util_pct_hello60")
		}
	}
}

// BenchmarkE13Churn: delivery ratio under link churn.
func BenchmarkE13Churn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E13(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "static_ratio", "rspf_ratio")
		}
	}
}

// BenchmarkE14ScaleWorlds: simulator throughput on generated N-station
// worlds (the burst-datapath payoff; see BENCH_simcore.json).
func BenchmarkE14ScaleWorlds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E14(io.Discard)
		if i == 0 {
			reportMetrics(b, r, "sim_s_per_wall_s_n200", "events_per_sim_s_n200")
		}
	}
}

// benchTable builds a routing table of n entries: a default route,
// net routes, and host routes, in the proportions a busy RSPF gateway
// carries.
func benchTable(n int) (*route.Table, []ip.Addr) {
	tb := route.New()
	tb.AddDefault(ip.MustAddr("128.95.1.1"), "qe0")
	var probes []ip.Addr
	for i := 0; i < n; i++ {
		a := ip.AddrFrom(44, byte(i>>8), byte(i), 1)
		if i%4 == 0 {
			tb.AddNet(ip.AddrFrom(44, byte(i>>8), byte(i), 0), ip.MaskClassC, ip.MustAddr("44.24.0.28"), "pr0")
		} else {
			tb.AddHost(a, ip.MustAddr("44.24.0.28"), "pr0")
		}
		probes = append(probes, a)
	}
	return tb, probes
}

// BenchmarkRouteLookup measures the longest-prefix match the forward
// path runs per packet, at gateway table sizes (the linear scan this
// table uses was plenty in 1988; this tracks when it stops being so).
func BenchmarkRouteLookup(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			tb, probes := benchTable(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tb.Lookup(probes[i%len(probes)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchLSDB builds a ~50-router link-state database shaped like a
// regional AMPRnet: a ring of radio routers with Ethernet chords, each
// advertising its connected networks and /32 stub.
func benchLSDB(n int) (*rspf.Database, ip.Addr) {
	db := rspf.NewDatabase()
	id := func(i int) ip.Addr { return ip.AddrFrom(44, 24, byte(i), 1) }
	for i := 0; i < n; i++ {
		l := &rspf.LSA{Router: id(i), Seq: 1}
		add := func(j int, cost uint16) {
			l.Links = append(l.Links, rspf.Link{Neighbor: id((j + n) % n), Cost: cost})
		}
		add(i-1, 8333)
		add(i+1, 8333)
		// Every fourth router pair shares an Ethernet chord.
		if i%4 == 0 {
			add(i+n/2, 1)
		}
		if (i+n/2)%n%4 == 0 {
			add(i-n/2, 1)
		}
		l.Networks = append(l.Networks,
			rspf.Network{Prefix: ip.AddrFrom(44, 24, byte(i), 0), Mask: ip.MaskClassC, Cost: 8333},
			rspf.Network{Prefix: id(i), Mask: ip.MaskHost, Cost: 0})
		db.Install(l, 0)
	}
	return db, id(0)
}

// BenchmarkSPF measures one full Dijkstra over a 50-router LSA
// database — the computation every topology change triggers on every
// router.
func BenchmarkSPF(b *testing.B) {
	db, root := benchLSDB(50)
	paths := db.ShortestPaths(root)
	if len(paths) != 50 {
		b.Fatalf("SPF reached %d of 50 routers", len(paths))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ShortestPaths(root)
	}
}
