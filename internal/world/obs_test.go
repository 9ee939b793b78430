package world

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/obs"
)

// TestSeamViewsShareOneRecorder pins the one-recorder design: the ping
// ledger, the span tracer and a pcap capture read one seam recorder,
// yet attaching all three yields the same fate table, span stream and
// capture bytes as attaching each alone — and the same again on the
// sharded engine, where the capture is stamped with the gateway
// shard's own clock.
func TestSeamViewsShareOneRecorder(t *testing.T) {
	type views struct {
		fates map[string]int
		spans []obs.Span
		pcap  []byte
	}
	run := func(workers int, ledger, tracer, capture bool) views {
		lw := NewLarge(LargeConfig{
			Seed: 7, Stations: 60, Channels: 6, PingInterval: time.Minute, Workers: workers,
		})
		var led *obs.PingLedger
		var journeys func() []obs.Trace
		var buf bytes.Buffer
		if ledger {
			led = lw.W.AttachPingLedger()
		}
		if tracer {
			journeys = lw.W.AttachTracer().Collect()
		}
		if capture {
			if _, err := lw.W.CapturePort("gw1", "pr0", &buf, nil); err != nil {
				t.Fatal(err)
			}
		}
		lw.W.Run(3 * time.Minute)
		v := views{pcap: buf.Bytes()}
		if led != nil {
			v.fates = led.Fates()
		}
		if journeys != nil {
			v.spans = spanStream(journeys())
		}
		return v
	}
	ref := run(0, true, true, true)
	if ref.fates["delivered"] == 0 || len(ref.spans) == 0 || len(ref.pcap) <= 24 {
		t.Fatalf("vacuous run: fates %v, %d spans, %d pcap bytes", ref.fates, len(ref.spans), len(ref.pcap))
	}
	if got := run(0, true, false, false).fates; !reflect.DeepEqual(got, ref.fates) {
		t.Fatalf("ledger alone: fates %v, with every view attached %v", got, ref.fates)
	}
	if got := run(0, false, true, false).spans; !reflect.DeepEqual(got, ref.spans) {
		t.Fatal("tracer alone records a different span stream")
	}
	if got := run(0, false, false, true).pcap; !bytes.Equal(got, ref.pcap) {
		t.Fatal("capture alone writes different bytes")
	}
	got := run(1, true, true, true)
	if !reflect.DeepEqual(got.fates, ref.fates) || !reflect.DeepEqual(got.spans, ref.spans) {
		t.Fatal("sharded engine: fates or spans differ from the single loop")
	}
	if !bytes.Equal(got.pcap, ref.pcap) {
		t.Fatalf("sharded engine: capture differs from the single loop (%d vs %d bytes)", len(got.pcap), len(ref.pcap))
	}
}

// traceRows reads a WriteTrace timeline back: the "world" and "packet
// journeys" process names, the world process's entries by category,
// and each journey row's span event phases and trace names, by row.
func traceRows(t *testing.T, fr *obs.FlightRecorder) (procs map[int]string, cats map[string]int, phases map[int]map[string]int, names map[int]map[string]bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := fr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	procs, cats = map[int]string{}, map[string]int{}
	phases, names = map[int]map[string]int{}, map[int]map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M":
			procs[e.PID] = e.Args["name"]
		case e.Cat == "span":
			if phases[e.TID] == nil {
				phases[e.TID], names[e.TID] = map[string]int{}, map[string]bool{}
			}
			phases[e.TID][e.Ph]++
			if e.Ph == "X" {
				names[e.TID][e.Args["trace"]] = true
			}
		case e.PID == 1:
			cats[e.Cat]++
		}
	}
	return procs, cats, phases, names
}

// TestFlightRecorderTrace pins the world's one flight ring as a Chrome
// trace: on a DAMA world with the tracer's journeys as its source,
// WriteTrace emits one "world" process holding scheduler and DAMA
// entries, then the packet journeys, where every journey of two or
// more spans is one row of complete events joined by one flow arc:
// exactly one start and one finish. Journeys that reuse a TraceID —
// a PC's one-shot pings, which recycle the echo id and seq — get a
// row and an arc each.
func TestFlightRecorderTrace(t *testing.T) {
	lw := NewLarge(LargeConfig{
		Seed: 1, Stations: 6, Channels: 1, PingInterval: time.Minute, MAC: MACDAMA,
	})
	journeys := lw.W.AttachTracer().Collect()
	fr := lw.W.EnableFlightRecorder(0)
	fr.SetJourneySource(journeys)
	lw.W.Run(3 * time.Minute)
	procs, cats, phases, names := traceRows(t, fr)
	if want := map[int]string{1: "world", 2: "packet journeys"}; !reflect.DeepEqual(procs, want) {
		t.Fatalf("processes %v, want %v", procs, want)
	}
	if cats["sched"] == 0 || cats["dama"] == 0 {
		t.Fatalf("world process entries by category %v, want sched and dama", cats)
	}
	multi, row := 0, 0
	for _, trc := range journeys() {
		n := len(trc.Spans())
		if n == 0 {
			continue
		}
		row++
		if !names[row][trc.ID.String()] || len(names[row]) != 1 {
			t.Fatalf("row %d holds traces %v, want only %v", row, names[row], trc.ID)
		}
		if n < 2 {
			continue
		}
		multi++
		if ph := phases[row]; ph["X"] != n || ph["s"] != 1 || ph["f"] != 1 {
			t.Fatalf("trace %v: %d spans, trace row phases %v; want %d X, one s and one f", trc.ID, n, ph, n)
		}
	}
	if multi == 0 {
		t.Fatal("no journey had two or more spans")
	}
	if len(phases) != row {
		t.Fatalf("%d journey rows, want one per journey with spans (%d)", len(phases), row)
	}

	// A PC pings three times, one-shot, each ping after the last one's
	// reply: the three journeys share one TraceID and get three rows.
	s := NewSeattle(SeattleConfig{Seed: 1, NumPCs: 1, MAC: MACDAMA})
	journeys = s.W.AttachTracer().Collect()
	fr = s.W.EnableFlightRecorder(0)
	fr.SetJourneySource(journeys)
	replies := 0
	var ping func()
	ping = func() {
		s.PCs[0].Stack.Ping(InternetIP, 32, func(uint16, time.Duration, ip.Addr) {
			if replies++; replies < 3 {
				ping()
			}
		})
	}
	ping()
	s.W.Run(10 * time.Minute)
	if replies != 3 {
		t.Fatalf("%d of 3 pings answered", replies)
	}
	_, _, phases, names = traceRows(t, fr)
	id := "icmp 44.24.0.10>128.95.1.2 id 1 seq 0"
	rows := 0
	for tid, ph := range phases {
		if !names[tid][id] {
			continue
		}
		rows++
		if ph["s"] != 1 || ph["f"] != 1 {
			t.Errorf("row %d of %s: phases %v, want one s and one f", tid, id, ph)
		}
	}
	if rows != 3 {
		t.Fatalf("%s renders as %d rows, want one per ping (3)", id, rows)
	}
}

// TestCaptureIPRecordsPingAtTheStack captures pc1's IP layer during
// one Seattle ping: the echo request leaves at 0 s, the reply arrives
// at the RTT, and nothing else crosses pc1's stack, as DLT_RAW records.
// A second capture whose filter matches nothing writes no record.
func TestCaptureIPRecordsPingAtTheStack(t *testing.T) {
	s := NewSeattle(SeattleConfig{Seed: 1, NumPCs: 1})
	var all, none bytes.Buffer
	if _, err := s.W.CaptureIP("pc1", &all, nil); err != nil {
		t.Fatal(err)
	}
	tcp, err := obs.ParseFilter("tcp")
	if err != nil {
		t.Fatal(err)
	}
	pw, err := s.W.CaptureIP("pc1", &none, tcp)
	if err != nil {
		t.Fatal(err)
	}
	var rtt time.Duration
	s.PCs[0].Stack.Ping(InternetIP, 64, func(_ uint16, d time.Duration, _ ip.Addr) { rtt = d })
	s.W.Run(time.Minute)
	if rtt == 0 {
		t.Fatal("the ping got no reply")
	}

	lt, pkts, err := obs.ReadPcap(&all)
	if err != nil {
		t.Fatal(err)
	}
	if lt != obs.LinkTypeRaw || len(pkts) != 2 {
		t.Fatalf("link type %d with %d records, want %d with the request and the reply", lt, len(pkts), obs.LinkTypeRaw)
	}
	want := []struct {
		at       time.Duration
		src, dst ip.Addr
	}{{0, PCIP(0), InternetIP}, {rtt.Truncate(time.Microsecond), InternetIP, PCIP(0)}}
	for i, w := range want {
		p, err := ip.Unmarshal(pkts[i].Data)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if pkts[i].T != w.at || p.Src != w.src || p.Dst != w.dst || p.Proto != ip.ProtoICMP {
			t.Errorf("record %d: %v at %v, want ICMP %v -> %v at %v", i, p, pkts[i].T, w.src, w.dst, w.at)
		}
	}

	if _, pkts, err := obs.ReadPcap(&none); err != nil || len(pkts) != 0 || pw.Count() != 0 {
		t.Fatalf("a filter matching nothing captured %d records (err %v)", len(pkts), err)
	}
}

// TestRegistryCoversEveryLayer sweeps a built world and checks the
// hierarchical names land for every layer the issue's netstat view
// promises: channel, MAC controller, and per-host ip/driver/tnc/rf/arp.
func TestRegistryCoversEveryLayer(t *testing.T) {
	lw := NewLarge(LargeConfig{
		Seed: 1, Stations: 4, Channels: 1,
		PingInterval: time.Minute, MAC: MACDAMA,
	})
	lw.W.Run(2 * time.Minute)
	r := lw.W.Registry()
	for _, name := range []string{
		"radio.145_01.frames_started",
		"radio.145_01.collision_pairs",
		"radio.145_01.utilization",
		"dama.145_01.elections",
		"host.gw1.ip.forwarded",
		"host.gw1.pr0.drv.ipq_drops",
		"host.gw1.pr0.tnc.from_host",
		"host.gw1.pr0.rf.frames_sent",
		"host.gw1.pr0.rf.polls_sent",
		"host.gw1.pr0.arp.learned",
		"host.st1.pr0.rf.csma_deferrals",
	} {
		if _, ok := r.Value(name); !ok {
			t.Errorf("registry missing %q", name)
		}
	}
	// The views are live, not copies: the gateway forwarded traffic.
	if v, _ := r.Value("host.gw1.ip.forwarded"); v == 0 {
		t.Error("gateway forwarded counter reads zero through the registry")
	}
	var buf bytes.Buffer
	lw.W.Netstat(&buf, "radio.")
	if !strings.Contains(buf.String(), "radio.145_01.frames_started") {
		t.Errorf("Netstat output missing channel stats:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "host.") {
		t.Error("Netstat prefix filter leaked other groups")
	}
}

// TestRegistryReadsSlotExactDeferrals: a station parked behind a long
// carrier has its deferrals settled only when its wake fires, so the
// raw Stats field lags mid-defer. The registry, and with it Netstat
// and sampling, reads the slot-exact CSMADeferrals instead.
func TestRegistryReadsSlotExactDeferrals(t *testing.T) {
	lw := NewLarge(LargeConfig{Seed: 1, Stations: 2, Channels: 1, PingInterval: time.Hour})
	a, b := lw.Stations[0].Radio("pr0").RF, lw.Stations[1].Radio("pr0").RF
	a.Send(make([]byte, 1200)) // about 8 s of carrier
	lw.W.Run(time.Second)
	b.Send(make([]byte, 60)) // parks behind it
	lw.W.Run(3*time.Second + 12345679)
	want := b.CSMADeferrals()
	if want <= b.Stats.CSMADeferrals {
		t.Fatalf("station is not parked behind the carrier: %d slot-exact deferrals, %d settled", want, b.Stats.CSMADeferrals)
	}
	name := "host." + metricName(lw.Stations[1].Name) + ".pr0.rf.csma_deferrals"
	if got, ok := lw.W.Registry().Value(name); !ok || got != float64(want) {
		t.Fatalf("%s = %v (present %v), want CSMADeferrals() = %d", name, got, ok, want)
	}
}

// TestCountersSurviveChurn pins the satellite fix: per-layer counters
// are owned by objects that persist across Retune, MoveHost and
// FailLink, so topology churn never resets or double-counts them. The
// one deliberate exception is airtime, which Retune *refunds* for the
// unaired tail of a cut transmission — so duration metrics are
// excluded from the monotonicity sweep.
func TestCountersSurviveChurn(t *testing.T) {
	lw := NewLarge(LargeConfig{
		Seed: 3, Stations: 8, Channels: 2,
		PingInterval: 30 * time.Second, MAC: MACDAMA,
	})
	r := lw.W.Registry()
	lw.W.Run(2 * time.Minute)

	monotonic := func(snap map[string]float64) {
		t.Helper()
		for name, was := range snap {
			if strings.Contains(name, "airtime") || strings.Contains(name, "utilization") {
				continue
			}
			now, ok := r.Value(name)
			if !ok {
				t.Fatalf("metric %q vanished after churn", name)
			}
			if now < was {
				t.Errorf("%s went backwards across churn: %v -> %v", name, was, now)
			}
		}
	}
	snapAll := func() map[string]float64 {
		out := make(map[string]float64)
		for _, s := range r.Snapshot() {
			out[s.Name] = s.Value
		}
		return out
	}

	mover := lw.Stations[0]
	moverRF := mover.Radio("pr0").RF
	sentBefore := moverRF.Stats.FramesSent
	if sentBefore == 0 {
		t.Fatal("mover never transmitted in the warm-up; churn test is vacuous")
	}

	// Churn: move st0 to the other channel, sever st1 from its
	// gateway, run, heal, move back, run again.
	before := snapAll()
	lw.W.MoveHost(mover.Name, "pr0", lw.Channels[1])
	lw.W.FailLink(lw.Stations[1].Name, lw.Gateways[0].Name)
	lw.W.Run(time.Minute)
	monotonic(before)

	before = snapAll()
	lw.W.HealLink(lw.Stations[1].Name, lw.Gateways[0].Name)
	lw.W.MoveHost(mover.Name, "pr0", lw.Channels[0])
	lw.W.Run(2 * time.Minute)
	monotonic(before)

	// The mover's transmit counter carried across both retunes and
	// kept counting — a reset (fresh transceiver) or a re-attach
	// double-count would both break the strict continuation.
	if moverRF.Stats.FramesSent <= sentBefore {
		t.Fatalf("mover FramesSent %d after churn, was %d before — counter reset or station wedged",
			moverRF.Stats.FramesSent, sentBefore)
	}
	// The registry still reads the same (persistent) transceiver.
	if v, _ := r.Value("host.st1.pr0.rf.frames_sent"); uint64(v) != moverRF.Stats.FramesSent {
		t.Fatalf("registry view diverged from the live counter: %v vs %d", v, moverRF.Stats.FramesSent)
	}

	// Airtime stays physical after cut transmissions: each channel's
	// utilization cannot exceed the number of stations that could key
	// up, and is not negative.
	for _, ch := range lw.Channels {
		if u := ch.Utilization(); u < 0 || u > float64(len(ch.Stations())) {
			t.Fatalf("channel utilization %v out of physical range after churn", u)
		}
	}
}
