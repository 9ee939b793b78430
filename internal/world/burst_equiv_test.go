package world

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/ip"
)

var update = flag.Bool("update", false, "rewrite the golden world traces from the current code")

// The end-to-end seed-path equivalences: the whole Figure-1 chain
// (driver → serial → TNC → radio and back) and the 40-station scale
// world must reproduce, event for event, what they did over the seed's
// per-byte serial chain and per-slot CSMA polling. Those paths now live
// only as oracles in the serial and radio tests, so the world-level
// answers are golden files in testdata, recorded from the oracle side:
// at commit 8116d52 the per-byte and per-slot runs of these exact
// scenarios (SeattleConfig.PerByteSerial, LargeConfig.PerSlotCSMA)
// wrote them, and the same commit's tests showed those runs equal to
// the burst and edge runs. A behaviour change that moves a frame, an
// RTT or a counter fails here; regenerate only for an intended change:
//
//	go test ./internal/world -run 'SeattleBurst|LargeWorldCSMA' -update

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d drifted from the oracle's:\n got:  %s\n want: %s", name, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, the oracle's %d", name, len(gl), len(wl))
	}
}

// seattleTrace runs cold-ARP, warm, large and reverse pings and a
// PC-to-PC exchange through the Seattle world — ARP, forwarding and
// both serial directions on three hosts — and returns every frame at
// the gateway and PC1 drivers (both directions, timestamped), each
// ping's RTT, and the per-port byte and frame counters.
func seattleTrace(t *testing.T) string {
	t.Helper()
	s := NewSeattle(SeattleConfig{Seed: 11, NumPCs: 2})
	var tr strings.Builder
	mon := func(host string) func(string, *ax25.Frame) {
		return func(dir string, f *ax25.Frame) {
			fmt.Fprintf(&tr, "%v %s %s %s->%s pid=%#x len=%d\n",
				s.W.Sched.Now(), host, dir, f.Src, f.Dst, f.PID, len(f.Info))
		}
	}
	s.Gateway.Radio("pr0").Driver.Monitor = mon("gw")
	s.PCs[0].Radio("pr0").Driver.Monitor = mon("pc1")

	var rtts []time.Duration
	ping := func(from *Host, dst ip.Addr, size int) {
		var rtt time.Duration
		got := false
		from.Stack.Ping(dst, size, func(_ uint16, d time.Duration, _ ip.Addr) { rtt, got = d, true })
		s.W.Sched.RunUntilDone(s.W.Sched.Now().Add(5*time.Minute), func() bool { return got })
		if !got {
			t.Fatalf("ping %s -> %v lost", from.Name, dst)
		}
		rtts = append(rtts, rtt)
	}
	ping(s.PCs[0], InternetIP, 8)
	ping(s.PCs[0], InternetIP, 64)
	ping(s.PCs[0], InternetIP, 216)
	ping(s.Internet, PCIP(1), 64)
	ping(s.PCs[1], PCIP(0), 32)
	s.W.Run(time.Minute) // let trailing frames drain

	for i, rtt := range rtts {
		fmt.Fprintf(&tr, "ping %d rtt=%v\n", i, rtt)
	}
	for _, h := range []*Host{s.Gateway, s.PCs[0], s.PCs[1]} {
		p := h.Radio("pr0")
		fmt.Fprintf(&tr, "%s host[s=%d r=%d] line[s=%d r=%d] drv[fed=%d kiss=%d ip=%d] tnc[up=%d down=%d]\n",
			h.Name, p.Host.BytesSent, p.Host.BytesReceived, p.Line.BytesSent, p.Line.BytesReceived,
			p.Driver.DStats.BytesFed, p.Driver.DStats.KISSFrames, p.Driver.DStats.IPIn,
			p.TNC.Stats.ToHost, p.TNC.Stats.FromHost)
	}
	return tr.String()
}

func TestSeattleBurstEquivalence(t *testing.T) {
	checkGolden(t, "seattle_serial.golden", seattleTrace(t))
}

// The same on a corrupted serial line: the gateway's DZ line drops to
// 600 baud and damages one byte in ~500, so KISS frames get mangled in
// transit. Frame sequences, corruption counts and recovery behaviour
// must match the per-byte chain's exactly (runs split at corruption
// points).
func TestSeattleBurstEquivalenceCorruptedLine(t *testing.T) {
	s := NewSeattle(SeattleConfig{Seed: 23, NumPCs: 1, Baud: 600})
	gw := s.Gateway.Radio("pr0")
	gw.Host.Line().CorruptRate = 0.002
	var log strings.Builder
	gw.Driver.Monitor = func(dir string, f *ax25.Frame) {
		fmt.Fprintf(&log, "%v %s %s->%s len=%d\n", s.W.Sched.Now(), dir, f.Src, f.Dst, len(f.Info))
	}
	got := 0
	for i := 0; i < 8; i++ {
		s.PCs[0].Stack.Ping(InternetIP, 64, func(uint16, time.Duration, ip.Addr) { got++ })
		s.W.Run(90 * time.Second)
	}
	fmt.Fprintf(&log, "replies=%d corrupt=%d+%d bad=%d crc=%d\n",
		got, gw.Host.Corrupted, gw.Line.Corrupted,
		gw.Driver.DStats.BadFrames, gw.TNC.Stats.CRCErrors)
	if gw.Host.Corrupted+gw.Line.Corrupted == 0 {
		t.Fatal("corruption rate produced no damaged bytes; test is vacuous")
	}
	checkGolden(t, "seattle_serial_corrupt.golden", log.String())
}
