package obs

import (
	"reflect"
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

	stages := map[string]bool{}
	deferrals := ""
	for _, sp := range tr.Spans() {
		stages[sp.Stage] = true
		if sp.Stage == StageMACWait {
			deferrals = sp.Arg
		}
	}
	for _, want := range []string{"arp-wait", "mac-wait", "airtime", "turnaround"} {
		if !stages[want] {
			t.Fatalf("spans missing stage %q: %v", want, tr.Spans())
		}
	}
	if deferrals != "deferrals=2" {
		t.Fatalf("mac-wait span carries %q, want the tx-start crossing's deferrals=2", deferrals)
	}
}

// TestTracerMergeAndReuse feeds one recorder from two lanes with their
// own clocks, as the sharded engine does: each shard runs a whole
// window before the next one starts, so crossings arrive out of
// virtual-time order across lanes, yet every journey comes out in
// causal order. A reused TraceID splits into one trace instance per
// origination.
func TestTracerMergeAndReuse(t *testing.T) {
	rec := NewRecorder()
	trc := rec.Tracer()
	journeys := trc.Collect()
	var nowA, nowB sim.Time
	la := rec.Lane(func() sim.Time { return nowA })
	lb := rec.Lane(func() sim.Time { return nowB })
	a := func(at time.Duration, pkt *ip.Packet, pt uint8) { nowA = ts(at); la.add(pkt, pt, "h1", "") }
	b := func(at time.Duration, pkt *ip.Packet, pt uint8) { nowB = ts(at); lb.add(pkt, pt, "h2", "") }
	// TCP segments with IP ids 7 and 9 from h1 to h2, and id 8 back.
	seg := func(src, dst string, id uint16) *ip.Packet {
		pkt := echoPacket(src, dst, ip.ProtoTCP, []byte{0, 1, 0, 2})
		pkt.ID = id
		return pkt
	}
	s7, s8, s9 := seg("10.0.0.1", "10.0.0.2", 7), seg("10.0.0.2", "10.0.0.1", 8), seg("10.0.0.1", "10.0.0.2", 9)

	// One window: lane a runs to 1.5s before lane b starts at 1s.
	a(0, s7, PtOrigin)
	a(1500*time.Millisecond, s9, PtOrigin)
	b(time.Second, s8, PtOrigin)
	// The next window: every hop lands 2s after it left.
	a(3*time.Second, s8, PtArrive)
	b(2*time.Second, s7, PtArrive)
	b(3500*time.Millisecond, s9, PtArrive)
	// Journey 7 again, reusing the ID: origin at 4s, arrival at 6s.
	a(4*time.Second, s7, PtOrigin)
	b(6*time.Second, s7, PtArrive)

	traces := journeys()
	var ids []uint16
	for i, tr := range traces {
		ids = append(ids, tr.ID.ID)
		if !tr.Complete() || len(tr.Crossings) != 2 {
			t.Fatalf("trace %d malformed: %+v", i, tr)
		}
		if tr.Elapsed() != 2*time.Second {
			t.Fatalf("trace %d (id %d) elapsed %v, want 2s", i, tr.ID.ID, tr.Elapsed())
		}
	}
	if !reflect.DeepEqual(ids, []uint16{7, 7, 9, 8}) {
		t.Fatalf("trace ids %v, want the reused id 7 split in two, then 9 and 8 in TraceID order", ids)
	}
	if traces[0].Crossings[0].T != ts(0) || traces[1].Crossings[0].T != ts(4*time.Second) {
		t.Fatal("instances out of chronological order")
	}

	bd := trc.Breakdown()
	if bd.Traces != 4 || bd.Incomplete != 0 {
		t.Fatalf("breakdown counted %d complete / %d incomplete, want 4/0", bd.Traces, bd.Incomplete)
	}
	if bd.Share(StageBackbone) != 1.0 {
		t.Fatalf("backbone share %v, want 1.0 (the only stage)", bd.Share(StageBackbone))
	}

	trc.Reset()
	if got := journeys(); len(got) != 0 {
		t.Fatalf("Reset left %d traces behind", len(got))
	}
}
