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

// tracedRun builds the E19 world — 100 stations on polled 1200 bps
// channels — with a tracer attached, and runs the standard 3-minute
// probe schedule.
func tracedRun(t *testing.T, workers int) (*obs.Tracer, *Large) {
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
	lw.W.Run(3 * time.Minute)
	return tr, lw
}

// TestTraceBreakdownAccountsRTT is E19's core claim: the per-stage
// breakdown accounts for every traced ping's full round trip. Spans
// are the intervals between consecutive crossings, so the stage sum
// telescopes to the end-to-end latency exactly — checked here per
// trace, not in aggregate — and the set of completed echo traces
// reproduces the world's own RTT multiset.
func TestTraceBreakdownAccountsRTT(t *testing.T) {
	tr, lw := tracedRun(t, 0)
	traces := tr.Traces()
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
	for _, sp := range tr.Spans() {
		if sp.Stage == obs.StageMACWait && strings.HasPrefix(sp.Arg, "master=") {
			named = true
			break
		}
	}
	if !named {
		t.Fatal("no mac-wait span names the DAMA master")
	}
}

// TestTraceSpansEngineInvariance pins the tentpole's determinism
// claim: the merged span stream — order, stages, endpoints, arguments
// — is identical on the single-loop engine and on the sharded engine.
func TestTraceSpansEngineInvariance(t *testing.T) {
	tr0, _ := tracedRun(t, 0)
	ref := tr0.Spans()
	if len(ref) == 0 {
		t.Fatal("no spans recorded")
	}
	tr1, _ := tracedRun(t, 1)
	if got := tr1.Spans(); !reflect.DeepEqual(ref, got) {
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
		tr := w.AttachTracer()
		a.Stack.Ping(ip.MustAddr("44.24.0.2"), 64, func(uint16, time.Duration, ip.Addr) {})
		w.Run(time.Minute)
		var out []string
		for _, sp := range tr.Spans() {
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
