// Socket-layer benchmarks: stream throughput and echo latency through
// the full Dial/Listen/Accept + sockbuf path, over the paper's 1200
// bps radio channel (through the gateway) and over the department
// Ethernet. TestWriteSocketBench holds BENCH_sockets.json to the same
// deterministic scenarios exactly, so the repo carries a committed
// perf trajectory for the application API.
package packetradio

import (
	"testing"
	"time"

	"packetradio/internal/ether"
	"packetradio/internal/experiments"
	"packetradio/internal/ip"
	"packetradio/internal/ipstack"
	"packetradio/internal/sim"
	"packetradio/internal/socket"
	"packetradio/internal/world"
)

// etherPair builds two hosts on one Ethernet segment with socket
// layers.
func etherPair(seed int64) (*sim.Scheduler, *socket.Layer, *socket.Layer) {
	sched := sim.NewScheduler(seed)
	seg := ether.NewSegment(sched, 0)
	mk := func(name, addr string) *socket.Layer {
		st := ipstack.New(sched, name)
		n := seg.Attach("qe0", ip.MustAddr(addr), st)
		n.Init()
		st.AddInterface(n, ip.MustAddr(addr), ip.MaskClassC)
		return socket.New(st)
	}
	return sched, mk("a", "10.0.0.1"), mk("b", "10.0.0.2")
}

// streamTransfer pushes nBytes through a fresh stream and returns the
// simulated transfer time (first write to last byte read).
func streamTransfer(run func(time.Duration), sched *sim.Scheduler,
	cl, sv *socket.Layer, dst ip.Addr, nBytes int, deadline time.Duration) time.Duration {
	ln, err := sv.Listen(9000, 5)
	if err != nil {
		panic(err)
	}
	received := 0
	var doneAt sim.Time
	done := false
	socket.AcceptLoop(ln, func(sock *socket.Socket) {
		socket.Pump(sock, func(p []byte) {
			received += len(p)
			if received >= nBytes && !done {
				done = true
				doneAt = sched.Now()
			}
		}, nil)
	})
	conn := cl.Dial(dst, 9000)
	w := socket.NewWriter(conn)
	start := sched.Now()
	w.Write(make([]byte, nBytes))
	for !done && sched.Now().Sub(start) < deadline {
		run(5 * time.Second)
	}
	conn.Close()
	ln.Close()
	if !done {
		panic("stream transfer did not complete within deadline")
	}
	return doneAt.Sub(start)
}

// echoRTT measures one application-level round trip: a 64-byte
// request, echoed by the server, timed write-to-read.
func echoRTT(run func(time.Duration), sched *sim.Scheduler,
	cl, sv *socket.Layer, dst ip.Addr, deadline time.Duration) time.Duration {
	ln, err := sv.Listen(9001, 5)
	if err != nil {
		panic(err)
	}
	socket.AcceptLoop(ln, func(sock *socket.Socket) {
		w := socket.NewWriter(sock)
		socket.Pump(sock, func(p []byte) { w.Write(p) }, nil)
	})
	conn := cl.Dial(dst, 9001)
	w := socket.NewWriter(conn)
	got := 0
	var doneAt sim.Time
	echoed := false
	socket.Pump(conn, func(p []byte) {
		got += len(p)
		if got >= 64 && !echoed {
			echoed = true
			doneAt = sched.Now()
		}
	}, nil)
	// Let the handshake finish so the RTT measures the echo, not the
	// SYN exchange.
	run(deadline)
	start := sched.Now()
	w.Write(make([]byte, 64))
	for got < 64 && sched.Now().Sub(start) < 4*deadline {
		run(time.Second)
	}
	conn.Close()
	ln.Close()
	if got < 64 {
		panic("echo did not complete within deadline")
	}
	return doneAt.Sub(start)
}

// radioWorld builds the Seattle scenario and returns client (Internet
// host) and server (radio PC) socket layers.
func radioWorld(seed int64) (*world.Seattle, *socket.Layer, *socket.Layer) {
	s := world.NewSeattle(world.SeattleConfig{Seed: seed, NumPCs: 1})
	inetSL := s.Internet.Sockets()
	inetSL.StreamDefaults.MSS = 216
	return s, inetSL, s.PCs[0].Sockets()
}

const radioStreamBytes = 2048
const etherStreamBytes = 65536

func radioStreamSeconds(seed int64) float64 {
	s, inetSL, pcSL := radioWorld(seed)
	d := streamTransfer(s.W.Run, s.W.Sched, inetSL, pcSL, world.PCIP(0),
		radioStreamBytes, 30*time.Minute)
	return d.Seconds()
}

func etherStreamSeconds(seed int64) float64 {
	sched, a, b := etherPair(seed)
	d := streamTransfer(func(d time.Duration) { sched.RunFor(d) }, sched, a, b,
		ip.MustAddr("10.0.0.2"), etherStreamBytes, time.Minute)
	return d.Seconds()
}

func radioEchoSeconds(seed int64) float64 {
	s, inetSL, pcSL := radioWorld(seed)
	return echoRTT(s.W.Run, s.W.Sched, inetSL, pcSL, world.PCIP(0), 2*time.Minute).Seconds()
}

func etherEchoSeconds(seed int64) float64 {
	sched, a, b := etherPair(seed)
	run := func(d time.Duration) { sched.RunFor(d) }
	return echoRTT(run, sched, a, b, ip.MustAddr("10.0.0.2"), time.Second).Seconds()
}

// BenchmarkSocketStreamRadio: 2 KB Internet -> radio PC through the
// gateway, via Dial/Listen/Accept and both hosts' sockbufs.
func BenchmarkSocketStreamRadio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		secs := radioStreamSeconds(1)
		if i == 0 {
			b.ReportMetric(secs, "sim_s")
			b.ReportMetric(float64(radioStreamBytes*8)/secs, "sim_bps")
		}
	}
}

// BenchmarkSocketStreamEther: 64 KB between two Ethernet hosts.
func BenchmarkSocketStreamEther(b *testing.B) {
	for i := 0; i < b.N; i++ {
		secs := etherStreamSeconds(1)
		if i == 0 {
			b.ReportMetric(secs*1e3, "sim_ms")
			b.ReportMetric(float64(etherStreamBytes*8)/secs, "sim_bps")
		}
	}
}

// BenchmarkSocketEchoRadio: 64-byte application echo across the
// gateway and back.
func BenchmarkSocketEchoRadio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		secs := radioEchoSeconds(1)
		if i == 0 {
			b.ReportMetric(secs, "sim_rtt_s")
		}
	}
}

// BenchmarkSocketEchoEther: the same echo on bare Ethernet.
func BenchmarkSocketEchoEther(b *testing.B) {
	for i := 0; i < b.N; i++ {
		secs := etherEchoSeconds(1)
		if i == 0 {
			b.ReportMetric(secs*1e3, "sim_rtt_ms")
		}
	}
}

// TestWriteSocketBench holds BENCH_sockets.json to the socket
// scenarios, field for field (checkBaseline). The scenarios are
// deterministic (fixed seeds, virtual clock), so the file only changes
// when the stack's behavior does — which is the point.
func TestWriteSocketBench(t *testing.T) {
	radioStream := radioStreamSeconds(1)
	etherStream := etherStreamSeconds(1)
	radioGoodput := float64(radioStreamBytes*8) / radioStream
	// The SOCK_RDM rows ride E17's transfer harness: the same 2 KB
	// Internet -> radio PC push, as four ReliableOrdered messages, at
	// the paper's two radio MTUs. "rdm" is the apples-to-apples cell
	// (256-byte frames, like radio_stream above); "rdm_bulk" is the
	// 576-byte-frame profile where the acceptance bar lives.
	rdmSmall := experiments.TransferRun("rdm", 256)
	rdmBulk := experiments.TransferRun("rdm", 576)
	if radioGoodput > 1200 {
		t.Errorf("radio goodput %v bps exceeds the 1200 bps channel", radioGoodput)
	}
	// The SOCK_RDM acceptance bar: Reliable-mode goodput at least 2x
	// the TCP stream baseline on the same 1200 bps path.
	if rdmBulk.GoodputBPS < 2*radioGoodput {
		t.Errorf("radio_rdm_bulk_goodput_bps %.0f < 2x radio_stream_goodput_bps %.0f", rdmBulk.GoodputBPS, radioGoodput)
	}
	checkBaseline(t, "BENCH_sockets.json", map[string]any{
		"description":                 "socket-layer benchmarks (virtual-clock seconds; deterministic, seed 1)",
		"radio_stream_bytes":          radioStreamBytes,
		"radio_stream_s":              radioStream,
		"radio_stream_goodput_bps":    radioGoodput,
		"ether_stream_bytes":          etherStreamBytes,
		"ether_stream_s":              etherStream,
		"ether_stream_goodput_bps":    float64(etherStreamBytes*8) / etherStream,
		"radio_echo_rtt_s":            radioEchoSeconds(1),
		"ether_echo_rtt_s":            etherEchoSeconds(1),
		"radio_rdm_s":                 rdmSmall.Seconds,
		"radio_rdm_goodput_bps":       rdmSmall.GoodputBPS,
		"radio_rdm_resent":            float64(rdmSmall.Resent),
		"radio_rdm_bulk_s":            rdmBulk.Seconds,
		"radio_rdm_bulk_goodput_bps":  rdmBulk.GoodputBPS,
		"radio_rdm_bulk_resent":       float64(rdmBulk.Resent),
		"radio_rdm_speedup_vs_stream": rdmBulk.GoodputBPS / radioGoodput,
	})
}
