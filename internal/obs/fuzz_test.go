package obs

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/sim"
)

// FuzzParseFilter feeds ParseFilter arbitrary text, as a scenario file
// or a -filter flag may carry: it must compile or return an error that
// names the line and column it broke at, never panic, and a compiled
// filter must evaluate any datagram without panicking.
func FuzzParseFilter(f *testing.F) {
	for _, s := range []string{
		"", "icmp", "host 44.24.0.28", "src 128.95.1.2 and not port 23",
		"tcp or udp or rdm", "proto 89 or proto icmp", "not not dst 1.2.3.4",
		"port 1-2", "or icmp", "icmp\n  port\t23", "host", "proto 256",
		"icmp or", "icmp and", "and icmp", "icmp and or tcp", "icmp or and tcp",
	} {
		f.Add(s)
	}
	pkts := []*ip.Packet{
		nil,
		{Header: ip.Header{Src: ip.AddrFrom(44, 24, 0, 28), Dst: ip.AddrFrom(128, 95, 1, 2), Proto: ip.ProtoTCP}, Payload: []byte{0, 23, 4, 0}},
		{Header: ip.Header{Src: ip.AddrFrom(1, 2, 3, 4), Dst: ip.AddrFrom(1, 2, 3, 4), Proto: ip.ProtoUDP}, Payload: []byte{0}},
		{Header: ip.Header{Proto: ip.ProtoICMP, FragOff: 8}},
	}
	f.Fuzz(func(t *testing.T, s string) {
		flt, err := ParseFilter(s)
		if err != nil {
			if !strings.Contains(err.Error(), " line ") || !strings.Contains(err.Error(), " col ") {
				t.Fatalf("ParseFilter(%q) error carries no position: %v", s, err)
			}
			return
		}
		if flt.String() != s {
			t.Fatalf("String() = %q, want the source %q", flt.String(), s)
		}
		for _, p := range pkts {
			flt.Match(p)
		}
	})
}

// FuzzJourneyFold holds the recorder, which keeps only the journeys in
// flight and folds each one into the views as it closes, to the
// rebuild it replaced (journeys_oracle_test.go): every crossing and
// loss goes both to the recorder and into a buffer that the oracle
// rebuilds at read time. The fate table, the breakdown and the
// collected journeys, crossing by crossing, must match.
//
// Each three-byte op picks a journey (four echoes, two of them on
// one station pair, and two TCP datagrams), a crossing point, a loss
// or a Reset, a reply-leg marker for echoes, a time step and a seam
// name. The stream keeps the one rule the fold adds: a journey ends at
// its final arrival or its first loss, so once the current journey of
// an ID has ended, only a new origination of that ID is fed.
func FuzzJourneyFold(f *testing.F) {
	f.Add([]byte{0, 10, 0, 24, 10, 1, 48, 10, 2, 72, 10, 0, 128, 10, 1, 152, 10, 2, 8, 10, 0})
	f.Add([]byte{0, 1, 0, 1, 1, 1, 80, 1, 0, 0, 1, 1, 248, 0, 0, 0, 5, 0, 76, 5, 1})
	f.Add([]byte{3, 7, 0, 75, 7, 1, 4, 9, 2, 76, 9, 0, 3, 1, 1, 83, 1, 2})
	f.Add([]byte{0, 5, 0, 2, 5, 1, 136, 5, 2, 208, 5, 0, 0, 5, 1, 248, 1, 1, 96, 5, 2})
	ids := []TraceID{
		{Proto: ip.ProtoICMP, A: ip.AddrFrom(44, 24, 0, 10), B: ip.AddrFrom(128, 95, 1, 2), ID: 1},
		{Proto: ip.ProtoICMP, A: ip.AddrFrom(44, 24, 0, 10), B: ip.AddrFrom(128, 95, 1, 2), ID: 1, Seq: 1},
		{Proto: ip.ProtoICMP, A: ip.AddrFrom(44, 24, 0, 11), B: ip.AddrFrom(128, 95, 1, 2), ID: 1},
		{Proto: ip.ProtoTCP, A: ip.AddrFrom(44, 24, 0, 10), B: ip.AddrFrom(128, 95, 1, 2), ID: 7},
		{Proto: ip.ProtoTCP, A: ip.AddrFrom(128, 95, 1, 2), B: ip.AddrFrom(44, 24, 0, 10), ID: 7},
		{Proto: ip.ProtoICMP, A: ip.AddrFrom(44, 24, 0, 12), B: ip.AddrFrom(44, 24, 0, 28), ID: 3, Seq: 9},
	}
	points := []uint8{
		PtOrigin, PtARPHold, PtARPFlush, PtKISSTx, PtMACQueue, PtTxStart,
		PtAirRx, PtKISSRx, PtFwd, PtArrive, ptLoss,
	}
	whos := []string{"pc1", "GW", "gw"}
	args := []string{"", "collision", "deferrals=2"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		rec := NewRecorder()
		led := rec.PingLedger()
		tr := rec.Tracer()
		journeys := tr.Collect()
		var buf []crossing
		type state struct{ open, ended bool }
		st := make(map[TraceID]state)
		var now sim.Time
		for o := 0; o+2 < len(ops); o += 3 {
			sel := ops[o] >> 3
			if sel == 31 {
				tr.Reset()
				buf, st = buf[:0], make(map[TraceID]state)
				continue
			}
			id := ids[int(ops[o]&7)%len(ids)]
			pt := points[int(sel)%len(points)]
			if id.Proto == ip.ProtoICMP && sel/11%2 == 1 {
				pt |= ptReply
			}
			now += sim.Time(time.Duration(ops[o+1]) * 10 * time.Millisecond)
			c := Cross{T: now, Point: pt, Who: whos[int(ops[o+2])%len(whos)], Arg: args[int(ops[o+2]>>2)%len(args)]}
			s := st[id]
			switch {
			case pt == PtOrigin:
				s = state{open: true}
			case s.ended:
				continue // the rule the fold adds: nothing follows an ending
			case pt&^ptReply == ptLoss:
				s.ended = s.open
			default:
				s = state{open: true, ended: final(id, pt)}
			}
			st[id] = s
			buf = append(buf, crossing{id: id, c: c})
			rec.cross(id, c)
		}

		want, got := oracleJourneys(buf), journeys()
		if len(want) != len(got) || (len(want) > 0 && !reflect.DeepEqual(want, got)) {
			t.Fatalf("collected journeys differ from the rebuild:\n got  %+v\n want %+v", got, want)
		}
		if wf, gf := oracleFates(want), led.Fates(); !reflect.DeepEqual(wf, gf) {
			t.Fatalf("fates %v, the rebuild's %v", gf, wf)
		}
		bd, ob := tr.Breakdown(), newOracleBreakdown(want)
		if bd.Traces != ob.traces || bd.Incomplete != ob.incomplete || bd.Total != ob.total {
			t.Fatalf("breakdown over %d complete (%d incomplete, total %v), the rebuild's %d (%d, %v)",
				bd.Traces, bd.Incomplete, bd.Total, ob.traces, ob.incomplete, ob.total)
		}
		var stages []string
		for _, stage := range SpanStages() {
			durs := append([]time.Duration(nil), ob.durs[stage]...)
			sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
			gotDurs := bd.DurationSamples(stage)
			sort.Slice(gotDurs, func(i, j int) bool { return gotDurs[i] < gotDurs[j] })
			shares := append([]float64(nil), ob.shares[stage]...)
			sort.Float64s(shares)
			gotShares := bd.ShareSamples(stage)
			sort.Float64s(gotShares)
			if bd.Count(stage) != len(durs) || len(gotDurs) != len(durs) ||
				(len(durs) > 0 && !reflect.DeepEqual(gotDurs, durs)) ||
				len(gotShares) != len(shares) || (len(shares) > 0 && !reflect.DeepEqual(gotShares, shares)) {
				t.Fatalf("stage %s: %d spans, durations %v, shares %v; the rebuild's %v, %v",
					stage, bd.Count(stage), gotDurs, gotShares, durs, shares)
			}
			if ob.total > 0 && bd.Share(stage) != float64(ob.totals[stage])/float64(ob.total) {
				t.Fatalf("stage %s: share %v, the rebuild's %v", stage, bd.Share(stage), float64(ob.totals[stage])/float64(ob.total))
			}
			if len(durs) > 0 {
				stages = append(stages, stage)
			}
		}
		if !reflect.DeepEqual(bd.Stages(), stages) {
			t.Fatalf("stages %v, the rebuild's %v", bd.Stages(), stages)
		}
	})
}
