package obs

import (
	"strings"
	"testing"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/sim"
)

func ts(d time.Duration) sim.Time { return sim.Time(d) }

// TestStageNaming pins the crossing→stage vocabulary, including the
// reply-leg and forwarding look-back cases.
func TestStageNaming(t *testing.T) {
	cases := []struct {
		prev, cur uint8
		want      string
	}{
		{PtOrigin, PtARPHold, StageIPOut},
		{PtARPHold, PtARPFlush, StageARPWait},
		{PtARPFlush, PtKISSTx, StageDrvOut},
		{PtKISSTx, PtMACQueue, StageSerialTx},
		{PtMACQueue, PtTxStart, StageMACWait},
		{PtTxStart, PtAirRx, StageAirtime},
		{PtAirRx, PtKISSRx, StageRxSerial},
		{PtKISSRx, PtFwd, StageIPRx},     // radio ingress to routing decision
		{PtFwd, PtArrive, StageBackbone}, // Ethernet transit
		{PtKISSRx, PtArrive, StageIPRx},  // radio ingress straight to arrival
		{PtArrive, PtOrigin | ptReply, StageTurnaround},
		{PtOrigin | ptReply, PtKISSTx | ptReply, StageDrvOut},
		{PtKISSRx | ptReply, PtArrive | ptReply, StageIPRx},
	}
	for _, c := range cases {
		if got := stageName(c.prev, c.cur); got != c.want {
			t.Errorf("stageName(%d, %d) = %q, want %q", c.prev, c.cur, got, c.want)
		}
	}
	for _, st := range SpanStages() {
		if st == "" {
			t.Fatal("empty stage name in SpanStages")
		}
	}
}

// TestTraceTelescoping pins the accounting identity the whole design
// rests on: span durations sum to the end-to-end latency exactly.
func TestTraceTelescoping(t *testing.T) {
	id := TraceID{Proto: ip.ProtoICMP, ID: 3, Seq: 1}
	tr := Trace{ID: id, Crossings: []Cross{
		{T: ts(0), Point: PtOrigin, Who: "pc1"},
		{T: ts(0), Point: PtARPHold, Who: "pc1"},
		{T: ts(2 * time.Second), Point: PtARPFlush, Who: "pc1"},
		{T: ts(2 * time.Second), Point: PtKISSTx, Who: "pc1"},
		{T: ts(2500 * time.Millisecond), Point: PtMACQueue, Who: "PC1"},
		{T: ts(3 * time.Second), Point: PtTxStart, Who: "PC1", Arg: "deferrals=2"},
		{T: ts(4 * time.Second), Point: PtAirRx, Who: "GW"},
		{T: ts(4100 * time.Millisecond), Point: PtKISSRx, Who: "gw"},
		{T: ts(4100 * time.Millisecond), Point: PtArrive, Who: "gw"},
		{T: ts(4200 * time.Millisecond), Point: PtOrigin | ptReply, Who: "gw"},
		{T: ts(6 * time.Second), Point: PtArrive | ptReply, Who: "pc1"},
	}}
	if !tr.Complete() {
		t.Fatal("round-trip trace not Complete")
	}
	var sum time.Duration
	for _, sp := range tr.Spans() {
		sum += sp.Duration()
	}
	if sum != tr.Elapsed() || sum != 6*time.Second {
		t.Fatalf("telescoping broken: spans sum %v, elapsed %v", sum, tr.Elapsed())
	}

	// Without the reply's arrival an ICMP trace stays incomplete.
	cut := Trace{ID: id, Crossings: tr.Crossings[:len(tr.Crossings)-1]}
	if cut.Complete() {
		t.Fatal("reply-less ICMP trace reported Complete")
	}
	// A non-ICMP trace completes at plain arrival.
	oneWay := Trace{ID: TraceID{Proto: ip.ProtoTCP, ID: 9}, Crossings: []Cross{
		{T: ts(0), Point: PtOrigin}, {T: ts(time.Second), Point: PtArrive},
	}}
	if !oneWay.Complete() {
		t.Fatal("one-way TCP trace not Complete")
	}

	var b strings.Builder
	tr.WriteWaterfall(&b)
	for _, want := range []string{"arp-wait", "mac-wait", "airtime", "turnaround", "deferrals=2"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("waterfall missing %q:\n%s", want, b.String())
		}
	}
}

// TestTracerMergeAndReuse drives the lane machinery directly: two
// lanes merged by (time, lane), and a reused TraceID splitting into
// one trace instance per origination.
func TestTracerMergeAndReuse(t *testing.T) {
	rec := NewRecorder()
	trc := rec.Tracer()
	var nowA, nowB sim.Time
	la := rec.Lane("a", func() sim.Time { return nowA })
	lb := rec.Lane("b", func() sim.Time { return nowB })
	if rec.Lane("a", func() sim.Time { return nowA }) != la {
		t.Fatal("Lane is not idempotent per name")
	}

	// A TCP segment from 10.0.0.1 to 10.0.0.2, IP id 7.
	pkt := echoPacket("10.0.0.1", "10.0.0.2", ip.ProtoTCP, []byte{0, 1, 0, 2})
	pkt.ID = 7
	// Journey 1: origin on lane a at t=0, arrival on lane b at t=2s.
	la.add(pkt, PtOrigin, "h1", "")
	nowB = ts(2 * time.Second)
	lb.add(pkt, PtArrive, "h2", "")
	// Journey 2 reuses the ID: origin at t=3s, arrival at t=5s.
	nowA = ts(3 * time.Second)
	la.add(pkt, PtOrigin, "h1", "")
	nowB = ts(5 * time.Second)
	lb.add(pkt, PtArrive, "h2", "")

	traces := trc.Traces()
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want the reused ID split into 2", len(traces))
	}
	for i, tr := range traces {
		if !tr.Complete() || len(tr.Crossings) != 2 {
			t.Fatalf("instance %d malformed: %+v", i, tr)
		}
		if tr.Elapsed() != 2*time.Second {
			t.Fatalf("instance %d elapsed %v, want 2s", i, tr.Elapsed())
		}
	}
	if traces[0].Crossings[0].T != ts(0) || traces[1].Crossings[0].T != ts(3*time.Second) {
		t.Fatal("instances out of chronological order")
	}

	bd := trc.Breakdown()
	if bd.Traces != 2 || bd.Incomplete != 0 {
		t.Fatalf("breakdown counted %d complete / %d incomplete, want 2/0", bd.Traces, bd.Incomplete)
	}
	if bd.Share(StageBackbone) != 1.0 {
		t.Fatalf("backbone share %v, want 1.0 (the only stage)", bd.Share(StageBackbone))
	}

	trc.Reset()
	if got := trc.Traces(); len(got) != 0 {
		t.Fatalf("Reset left %d traces behind", len(got))
	}
}

// TestBreakdownRegister folds the per-stage histograms into a registry
// and reads them back through HistogramFor — the path prsim -spans
// plus -netstat takes.
func TestBreakdownRegister(t *testing.T) {
	id := TraceID{Proto: ip.ProtoTCP, ID: 1}
	bd := newBreakdown()
	bd.observe(Trace{ID: id, Crossings: []Cross{
		{T: ts(0), Point: PtOrigin},
		{T: ts(time.Second), Point: PtArrive},
	}})
	reg := NewRegistry()
	bd.Register(reg, "trace.span.")
	h, ok := reg.HistogramFor("trace.span.backbone_seconds")
	if !ok {
		t.Fatal("backbone histogram not registered")
	}
	if h.Count() != 1 {
		t.Fatalf("histogram count %d, want 1", h.Count())
	}
	if q := h.Quantile(0.5); q < 1 {
		t.Fatalf("p50 %v below the observed 1s", q)
	}
}
