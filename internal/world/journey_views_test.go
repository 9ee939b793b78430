package world

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/obs"
)

// journeyWorld is one world behind TestJourneyViewsGolden: a name, and
// a builder returning the world and a start func for its traffic.
type journeyWorld struct {
	name  string
	build func() (*World, func())
}

// journeyWorlds are the worlds the journey views are pinned on: the
// regional scale cell on both engines, a denser probe schedule, a
// polled channel, both reliable transports, and the Seattle world,
// whose PCs reuse one ICMP id for every one-shot ping.
func journeyWorlds() []journeyWorld {
	large := func(cfg LargeConfig) func() (*World, func()) {
		return func() (*World, func()) { return NewLarge(cfg).W, func() {} }
	}
	return []journeyWorld{
		{"regional 1000/40", large(LargeConfig{Seed: 1, Stations: 1000, Channels: 40, PingInterval: time.Minute})},
		{"regional 1000/40 sharded", large(LargeConfig{Seed: 1, Stations: 1000, Channels: 40, PingInterval: time.Minute, Workers: 2})},
		{"200/8 20s probes", large(LargeConfig{Seed: 2, Stations: 200, Channels: 8, PingInterval: 20 * time.Second})},
		{"dama 100/1", large(LargeConfig{Seed: 3, Stations: 100, Channels: 1, PingInterval: time.Minute, MAC: MACDAMA})},
		{"rdm 200/25", large(LargeConfig{Seed: 4, Stations: 200, Channels: 25, PingInterval: time.Minute, Transport: TransportRDM})},
		{"tcp 100/10", large(LargeConfig{Seed: 2, Stations: 100, Channels: 10, PingInterval: time.Minute, Transport: TransportTCP})},
		{"seattle 4 pcs", func() (*World, func()) {
			s := NewSeattle(SeattleConfig{Seed: 5, NumPCs: 4})
			return s.W, func() {
				for i, pc := range s.PCs {
					pc := pc
					var ping func()
					ping = func() {
						pc.Stack.Ping(InternetIP, 64, func(uint16, time.Duration, ip.Addr) {})
						s.W.Sched.After(30*time.Second, ping)
					}
					s.W.Sched.After(time.Duration(i)*7*time.Second, ping)
				}
			}
		}},
	}
}

// journeyViews runs w with the ledger and the tracer attached: a 30 s
// warm-up, a Reset, then 20 simulated minutes. It reports the fate
// table, the breakdown, and the sum of each stage's share samples
// (summed in sorted order, so the sum does not depend on the order the
// journeys were folded in).
func journeyViews(jw journeyWorld) string {
	w, start := jw.build()
	led := w.AttachPingLedger()
	tr := w.AttachTracer()
	start()
	w.Run(30 * time.Second)
	tr.Reset()
	w.Run(20 * time.Minute)
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n-- fates\n", jw.name)
	led.WriteFates(&b)
	b.WriteString("-- breakdown\n")
	bd := tr.Breakdown()
	bd.WriteText(&b)
	b.WriteString("-- share sums\n")
	for _, stage := range bd.Stages() {
		shares := bd.ShareSamples(stage)
		sort.Float64s(shares)
		sum := 0.0
		for _, s := range shares {
			sum += s
		}
		fmt.Fprintf(&b, "%-12s %6d %.17g\n", stage, len(shares), sum)
	}
	return b.String()
}

// TestJourneyViewsGolden pins the ledger's fate table and the tracer's
// breakdown on seven worlds to what the recorder gave when it kept
// every crossing and rebuilt the journeys at read time: the file was
// recorded with that recorder, from this test, and the recorder that
// folds each journey as it finishes must reproduce it. Regenerate only
// for an intended change:
//
//	go test ./internal/world -run JourneyViewsGolden -update
func TestJourneyViewsGolden(t *testing.T) {
	var b strings.Builder
	for _, jw := range journeyWorlds() {
		b.WriteString(journeyViews(jw))
	}
	checkGolden(t, "journey_views.golden", b.String())
}

// TestNoJourneyStuckAtARPHold: a datagram the ARP hold queue drops —
// evicted by a newer hold, or given up when its requests go unanswered
// — is a loss that ends its journey. In a TCP world whose stations
// contend for ARP on busy channels, no journey is still open at an
// ARP hold older than the resolver's give-up after 30 minutes.
func TestNoJourneyStuckAtARPHold(t *testing.T) {
	lw := NewLarge(LargeConfig{
		Seed: 2, Stations: 100, Channels: 10, PingInterval: time.Minute, Transport: TransportTCP,
	})
	tr := lw.W.AttachTracer()
	lw.W.Run(30 * time.Minute)
	// The resolver gives a destination up after five requests.
	const arpRequests = 5
	var giveUp time.Duration
	var dropped uint64
	for _, h := range append(append([]*Host(nil), lw.Stations...), lw.Gateways...) {
		res := h.Radio("pr0").Driver.Resolver()
		giveUp = max(giveUp, arpRequests*res.RequestInterval)
		dropped += res.Stats.HeldDrops
	}
	if dropped == 0 {
		t.Fatal("no ARP hold was dropped; the test is vacuous")
	}
	now := lw.W.Sched.Now()
	stuck := 0
	for _, j := range tr.Open() {
		last := j.Crossings[len(j.Crossings)-1]
		if last.Point == obs.PtARPHold && now.Sub(last.T) > giveUp {
			stuck++
		}
	}
	if stuck > 0 {
		t.Fatalf("%d journeys still open at an ARP hold older than the %v give-up (%d held datagrams dropped)",
			stuck, giveUp, dropped)
	}
}

// TestStackDropsEndJourneys: a datagram the gateway's IP layer
// discards is a loss that ends its journey, named for the reason.
// june's unsolicited ping to pc1 dies at the §4.3 filter, and pc1's
// ping to a network the gateway has no route to dies at its routing
// table; the ledger counts each under its reason and no journey stays
// open.
func TestStackDropsEndJourneys(t *testing.T) {
	for _, tc := range []struct {
		acl  bool
		ping func(s *Seattle, reply func(uint16, time.Duration, ip.Addr))
		fate string
	}{
		{true, func(s *Seattle, reply func(uint16, time.Duration, ip.Addr)) {
			s.Internet.Stack.Ping(PCIP(0), 56, reply)
		}, "req: filter reject"},
		{false, func(s *Seattle, reply func(uint16, time.Duration, ip.Addr)) {
			s.PCs[0].Stack.Ping(ip.MustAddr("10.9.9.9"), 56, reply)
		}, "req: no route"},
	} {
		s := NewSeattle(SeattleConfig{Seed: 1, WithACL: tc.acl})
		ledger, tr := s.W.AttachPingLedger(), s.W.AttachTracer()
		tc.ping(s, func(uint16, time.Duration, ip.Addr) { t.Errorf("%s: the ping was answered", tc.fate) })
		s.W.Run(2 * time.Minute)
		st := s.Gateway.Stack.Stats
		if st.FilterDrops+st.NoRoute != 1 {
			t.Errorf("%s: the gateway dropped %d datagrams, want 1", tc.fate, st.FilterDrops+st.NoRoute)
		}
		if got := ledger.Fates(); len(got) != 1 || got[tc.fate] != 1 {
			t.Errorf("ledger fates %v, want 1 %q", got, tc.fate)
		}
		if open := tr.Open(); len(open) != 0 {
			t.Errorf("%s: %d journeys still open, first %v", tc.fate, len(open), open[0].ID)
		}
	}
}

// maxObsHeapPerKProbe bounds the live heap the ping ledger and the
// span tracer may add per 1,000 probes once a world is warm, in MB.
// The recorder keeps only the journeys in flight; what still grows is
// the breakdown's exact samples, 8 bytes per span and per stage share
// of every complete journey (about 0.2 MB per 1,000 probes here).
const maxObsHeapPerKProbe = 0.3

// TestObsHeapBoundedByFlight: with the ledger and the tracer attached,
// a 100-station world's live heap over the second of two 30-minute
// halves grows by no more than maxObsHeapPerKProbe per 1,000 probes
// sent in it. A recorder that kept every crossing grew by 1.24 MB.
func TestObsHeapBoundedByFlight(t *testing.T) {
	lw := NewLarge(LargeConfig{Seed: 1, Stations: 100, Channels: 10, PingInterval: time.Minute})
	lw.W.AttachPingLedger()
	lw.W.AttachTracer()
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	lw.W.Run(30 * time.Minute)
	heap0, sent0 := live(), lw.Sent
	lw.W.Run(30 * time.Minute)
	grown, probes := live()-heap0, lw.Sent-sent0
	runtime.KeepAlive(lw)
	perK := float64(grown) / 1e6 / (float64(probes) / 1000)
	t.Logf("live heap grew %.3f MB over %d probes: %.3f MB per 1,000", float64(grown)/1e6, probes, perK)
	if probes == 0 || perK > maxObsHeapPerKProbe {
		t.Fatalf("live heap grew %.3f MB per 1,000 probes (%d probes), want at most %.1f",
			perK, probes, maxObsHeapPerKProbe)
	}
}
