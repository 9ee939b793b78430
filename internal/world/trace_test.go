package world

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/ip"
	"packetradio/internal/obs"
)

// spanStream is the global span stream: every journey's spans, the
// journeys in the order given.
func spanStream(journeys []obs.Trace) []obs.Span {
	var out []obs.Span
	for _, j := range journeys {
		out = append(out, j.Spans()...)
	}
	return out
}

// tracedRun builds the E19 world — 100 stations on polled 1200 bps
// channels — with a tracer attached, and runs the standard 3-minute
// probe schedule. It returns the tracer and every journey, in TraceID
// order.
func tracedRun(t *testing.T, workers int) (*obs.Tracer, []obs.Trace, *Large) {
	t.Helper()
	lw := NewLarge(LargeConfig{
		Seed:         5,
		Stations:     100,
		Channels:     4,
		BitRate:      1200,
		PingInterval: time.Minute,
		MAC:          MACDAMA,
		Workers:      workers,
	})
	tr := lw.W.AttachTracer()
	journeys := tr.Collect()
	lw.W.Run(3 * time.Minute)
	return tr, journeys(), lw
}

// TestTraceBreakdownAccountsRTT is E19's core claim: the per-stage
// breakdown accounts for every traced ping's full round trip. Spans
// are the intervals between consecutive crossings, so the stage sum
// telescopes to the end-to-end latency exactly — checked here per
// trace, not in aggregate — and the set of completed echo traces
// reproduces the world's own RTT multiset.
func TestTraceBreakdownAccountsRTT(t *testing.T) {
	tr, traces, lw := tracedRun(t, 0)
	if len(traces) == 0 {
		t.Fatal("no traces recorded")
	}
	var echoRTTs []time.Duration
	complete := 0
	for _, trc := range traces {
		if !trc.Complete() {
			continue
		}
		complete++
		var sum time.Duration
		for _, sp := range trc.Spans() {
			sum += sp.Duration()
		}
		if sum != trc.Elapsed() {
			t.Fatalf("trace %v: stage sum %v != end-to-end %v", trc.ID, sum, trc.Elapsed())
		}
		if trc.ID.Proto == ip.ProtoICMP {
			echoRTTs = append(echoRTTs, trc.Elapsed())
		}
	}
	if complete == 0 {
		t.Fatal("no complete traces — the tracer is missing a seam")
	}

	want := append([]time.Duration(nil), lw.RTTs...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	sort.Slice(echoRTTs, func(i, j int) bool { return echoRTTs[i] < echoRTTs[j] })
	if len(echoRTTs) != len(want) {
		t.Fatalf("completed echo traces %d != world replies %d", len(echoRTTs), len(want))
	}
	for i := range want {
		if echoRTTs[i] != want[i] {
			t.Fatalf("RTT[%d]: trace says %v, world says %v", i, echoRTTs[i], want[i])
		}
	}

	// The polled channel's mac-wait spans must name who the frame was
	// waiting on — the DAMA master — not a CSMA deferral count.
	bd := tr.Breakdown()
	if bd.Count(obs.StageMACWait) == 0 {
		t.Fatal("no mac-wait spans in a polled world")
	}
	named := false
	for _, sp := range spanStream(traces) {
		if sp.Stage == obs.StageMACWait && strings.HasPrefix(sp.Arg, "master=") {
			named = true
			break
		}
	}
	if !named {
		t.Fatal("no mac-wait span names the DAMA master")
	}
}

// TestTraceSpansEngineInvariance pins the tracer's determinism claim:
// the span stream — order, stages, endpoints, arguments — is
// identical on the single-loop engine and on the sharded engine.
func TestTraceSpansEngineInvariance(t *testing.T) {
	_, journeys0, _ := tracedRun(t, 0)
	ref := spanStream(journeys0)
	if len(ref) == 0 {
		t.Fatal("no spans recorded")
	}
	_, journeys1, _ := tracedRun(t, 1)
	if got := spanStream(journeys1); !reflect.DeepEqual(ref, got) {
		i := 0
		for i < len(ref) && i < len(got) && ref[i] == got[i] {
			i++
		}
		t.Fatalf("span stream diverges on the sharded engine (len %d vs %d, first diff at %d)",
			len(ref), len(got), i)
	}
}

// TestTracerMatchesSSIDStations: the air seam finds a frame's
// addressee by its full link address. A ping between stations with
// SSIDs, overheard by a station holding the sender's bare callsign,
// must trace the same spans as the same ping between plain callsigns
// with an unrelated bystander. Matching the callsign alone lost both
// airtime spans to rx-serial and let the bystander claim the request.
func TestTracerMatchesSSIDStations(t *testing.T) {
	spans := func(callA, callB, bystander string) []string {
		w := New(11)
		ch := w.Channel("145.01", 0)
		a := w.Host("a")
		a.AttachRadio(ch, "pr0", callA, ip.MustAddr("44.24.0.1"), ip.MaskClassA, RadioConfig{})
		b := w.Host("b")
		b.AttachRadio(ch, "pr0", callB, ip.MustAddr("44.24.0.2"), ip.MaskClassA, RadioConfig{})
		w.Host("c").AttachRadio(ch, "pr0", bystander, ip.MustAddr("44.24.0.3"), ip.MaskClassA, RadioConfig{})
		a.Radio("pr0").Driver.Resolver().AddStatic(ip.MustAddr("44.24.0.2"), ax25.MustAddr(callB).HW())
		b.Radio("pr0").Driver.Resolver().AddStatic(ip.MustAddr("44.24.0.1"), ax25.MustAddr(callA).HW())
		journeys := w.AttachTracer().Collect()
		a.Stack.Ping(ip.MustAddr("44.24.0.2"), 64, func(uint16, time.Duration, ip.Addr) {})
		w.Run(time.Minute)
		var out []string
		for _, sp := range spanStream(journeys()) {
			out = append(out, fmt.Sprintf("%s %v-%v", sp.Stage, sp.Start, sp.End))
		}
		return out
	}
	plain := spans("AAA", "BBB", "CCC")
	ssid := spans("AAA-1", "BBB-2", "AAA")
	if !strings.Contains(strings.Join(plain, "\n"), "airtime") {
		t.Fatalf("plain world traced no airtime span:\n%s", strings.Join(plain, "\n"))
	}
	if !reflect.DeepEqual(ssid, plain) {
		t.Fatalf("SSID world's spans differ from the plain world's:\n-- plain --\n%s\n-- ssid --\n%s",
			strings.Join(plain, "\n"), strings.Join(ssid, "\n"))
	}
}

// TestBystandersStayOutOfJourneys: Seattle's PCs run promiscuous TNCs,
// so every PC's driver pulls every frame on the channel off its serial
// line. Only the addressee's copy crosses a journey's path, so each
// radio hop of pc1's pings gets exactly one rx-serial span, and no span
// names a bystander PC.
func TestBystandersStayOutOfJourneys(t *testing.T) {
	s := NewSeattle(SeattleConfig{Seed: 1, NumPCs: 4})
	journeys := s.W.AttachTracer().Collect()
	for i := 0; i < 3; i++ {
		s.W.Sched.After(time.Duration(i)*time.Minute, func() {
			s.PCs[0].Stack.Ping(InternetIP, 32, func(uint16, time.Duration, ip.Addr) {})
		})
	}
	s.W.Run(4 * time.Minute)
	bystanders := map[string]bool{}
	for i, pc := range s.PCs[1:] {
		bystanders[pc.Name] = true
		bystanders[PCCall(i+1)] = true
	}
	complete := 0
	for _, trc := range journeys() {
		if trc.Complete() {
			complete++
		}
		hops, rx := 0, 0
		for _, sp := range trc.Spans() {
			if bystanders[sp.Who] {
				t.Fatalf("trace %v: %s span names bystander %s", trc.ID, sp.Stage, sp.Who)
			}
			switch sp.Stage {
			case obs.StageAirtime:
				hops++
			case obs.StageRxSerial:
				rx++
			}
		}
		if rx != hops {
			t.Fatalf("trace %v: %d rx-serial spans over %d radio hops, want one per hop", trc.ID, rx, hops)
		}
	}
	if complete == 0 {
		t.Fatal("no ping completed its round trip")
	}
}
