package obs

import (
	"reflect"
	"testing"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/ip"
	"packetradio/internal/sim"
)

// echo builds an ICMP echo request (reply=false) from the station to
// the server, or the matching reply, with the given sequence number.
func echo(reply bool, seq byte) *ip.Packet {
	payload := []byte{8, 0, 0, 0, 0, 1, 0, seq, 1, 2, 3, 4, 5, 6, 7, 8}
	if reply {
		payload[0] = 0
		return echoPacket("128.95.1.2", "44.24.0.10", ip.ProtoICMP, payload)
	}
	return echoPacket("44.24.0.10", "128.95.1.2", ip.ProtoICMP, payload)
}

// TestLedgerIsJourneyProjection pins the fate rules the ping ledger
// reads off the recorded journeys: the reply's arrival is delivery,
// else the first pinned loss, which ends the journey, else the last
// ladder rung reached; journeys never seen leaving a station are not
// pings, and a loss before a ping exists pins nothing.
func TestLedgerIsJourneyProjection(t *testing.T) {
	rec := NewRecorder()
	led := rec.PingLedger()
	journeys := rec.Tracer().Collect()
	var now sim.Time
	ln := rec.Lane(func() sim.Time { return now })
	step := func(pkt *ip.Packet, pt uint8, arg string) {
		now += sim.Time(time.Second)
		ln.add(pkt, pt, "h", arg)
	}
	full := []struct {
		reply bool
		pt    uint8
	}{
		{false, PtOrigin}, {false, PtKISSTx}, {false, PtAirRx}, {false, PtFwd}, {false, PtArrive},
		{true, PtOrigin}, {true, PtFwd}, {true, PtAirRx}, {true, PtArrive},
	}
	// seq 1: the whole round trip.
	for _, c := range full {
		step(echo(c.reply, 1), c.pt, "")
	}
	// seq 2: the request collides at the gateway.
	step(echo(false, 2), PtOrigin, "")
	step(echo(false, 2), ptLoss, "collision")
	step(echo(false, 2), ptLoss, "noise") // only the first loss counts
	// seq 3: the reply is still queued at the server.
	for _, c := range full[:6] {
		step(echo(c.reply, 3), c.pt, "")
	}
	// seq 4: a reply-leg loss pinned, then the reply arrives anyway:
	// the loss ended the ping's journey, and the late arrival is a
	// journey of its own that never left a station.
	step(echo(false, 4), PtOrigin, "")
	step(echo(true, 4), ptLoss, "ipq overflow")
	step(echo(true, 4), PtArrive, "")
	// seq 5: a loss before the ping exists pins nothing.
	step(echo(false, 5), ptLoss, "collision")
	step(echo(false, 5), PtOrigin, "")
	// seq 6: seen mid-flight only (sent before recording started).
	step(echo(false, 6), PtAirRx, "")

	want := map[string]int{
		"delivered":                     1,
		"req: collision":                1,
		"rep: ipq overflow":             1,
		"pending: rep to gateway":       1,
		"pending: req in station queue": 1,
	}
	if got := led.Fates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fates = %v, want %v", got, want)
	}
	if led.Sent() != 5 || led.Delivered() != 1 {
		t.Fatalf("sent/delivered = %d/%d, want 5/1", led.Sent(), led.Delivered())
	}
	// The tracer reads the same journeys; losses are pinned, never
	// crossings.
	for _, tr := range journeys() {
		for _, c := range tr.Crossings {
			if c.Point&^ptReply == ptLoss {
				t.Fatalf("trace %v holds a loss as a crossing", tr.ID)
			}
		}
		if tr.ID.Seq == 2 && tr.Loss != "req: collision" {
			t.Fatalf("seq 2 loss = %q, want the first one", tr.Loss)
		}
	}
	// seq 4 is two journeys: the ping, ended by its loss, and the late
	// arrival, which the ledger does not count.
	var seq4 []Trace
	for _, tr := range journeys() {
		if tr.ID.Seq == 4 {
			seq4 = append(seq4, tr)
		}
	}
	if len(seq4) != 2 || seq4[0].Loss != "rep: ipq overflow" || len(seq4[1].Crossings) != 1 ||
		seq4[1].Crossings[0].Point != PtArrive|ptReply {
		t.Fatalf("seq 4 journeys %+v, want the lost ping and then the late arrival alone", seq4)
	}
}

// TestKISSRecordDecodedBare pins the KISS seam's dress: a KISS data
// record carries a bare AX.25 frame, so a frame whose last two bytes
// happen to read as a valid FCS (one frame in 65536) must not lose
// them to an FCS strip — which would drop the datagram's KISS
// crossing and mislabel its serial time as backbone transit.
func TestKISSRecordDecodedBare(t *testing.T) {
	buf, err := echo(false, 1).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ax25.NewUI(ax25.MustAddr("GW"), ax25.MustAddr("PC1"), ax25.PIDIP, buf).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the datagram's last two bytes with the FCS of the rest.
	n := len(enc)
	withFCS := ax25.AppendFCS(append([]byte(nil), enc[:n-2]...))
	copy(enc[n-2:], withFCS[n-2:])
	if _, ok := ax25.CheckFCS(enc); !ok {
		t.Fatal("test frame does not look FCS-suffixed; the case is vacuous")
	}

	rec := NewRecorder()
	journeys := rec.Tracer().Collect()
	var captured []SeamEvent
	rec.Subscribe(func(_ sim.Time, ev SeamEvent) { captured = append(captured, ev) })
	ln := rec.Lane(func() sim.Time { return 0 })
	ln.KISSTap("pc1", "pr0", ax25.MustAddr("PC1"))("tx", append([]byte{0}, enc...))

	traces := journeys()
	if len(traces) != 1 || len(traces[0].Crossings) != 1 || traces[0].Crossings[0].Point != PtKISSTx {
		t.Fatalf("KISS crossing not recorded: %+v", traces)
	}
	if len(captured) != 1 || captured[0].Pkt == nil || captured[0].If != "pr0" || captured[0].Seam != SeamKISS {
		t.Fatalf("subscriber saw %+v, want one decoded KISS event on pr0", captured)
	}
}

// TestAirDecodeServesEveryReceiver pins the on-air decode cache: the
// copies of one transmission share a decode, a different frame gets
// its own, and only the addressee's copy moves the journey.
func TestAirDecodeServesEveryReceiver(t *testing.T) {
	frame := func(dst string, pkt *ip.Packet) []byte {
		buf, err := pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := ax25.NewUI(ax25.MustAddr(dst), ax25.MustAddr("PC1"), ax25.PIDIP, buf).Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		return ax25.AppendFCS(enc)
	}
	rec := NewRecorder()
	journeys := rec.Tracer().Collect()
	ln := rec.Lane(func() sim.Time { return 0 })
	req := frame("GW", echo(false, 1))
	for _, rx := range []string{"PC2", "GW", "PC3"} {
		ln.Air(rx, req, "ok")
	}
	ln.Air("GW", frame("GW", echo(false, 2)), "collision")

	traces := journeys()
	if len(traces) != 1 || traces[0].ID.Seq != 1 || len(traces[0].Crossings) != 1 ||
		traces[0].Crossings[0].Point != PtAirRx || traces[0].Crossings[0].Who != "GW" {
		t.Fatalf("want one air arrival at GW for seq 1, got %+v", traces)
	}
	// seq 2's loss has no journey to pin on (no crossing of it yet).
	if traces[0].Loss != "" {
		t.Fatalf("seq 1 picked up loss %q", traces[0].Loss)
	}
}
