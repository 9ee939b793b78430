package radio

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"packetradio/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden CSMA edge trace")

// The per-slot oracle (TestCSMAModeEquivalence, FuzzContention) cannot
// check the contention edges where the event-driven path defines its
// own behaviour: SetParams and Retune while a station defers or
// transmits, and reachability flips under a carrier.
// TestCSMAEdgesGolden pins what the event-driven path does there: a
// table of seeded programs, each traced in full (deliveries, final
// stats, and mid-run probes of CSMADeferrals, QueueLen and
// CarrierSense at instants off every slot grid), compared with
// testdata/csma_edges.golden.
//
// Regenerate with: go test ./internal/radio -run CSMAEdgesGolden -update

// edgeKind selects which contention edges a program exercises.
type edgeKind struct {
	name      string
	bursts    bool // traffic that piles several frames onto one queue
	setParams bool // SetParams mid-defer
	retunes   bool // Retune mid-defer and mid-frame
	flips     bool // SetReachable flips under a carrier
	noisy     bool
}

var edgeKinds = []edgeKind{
	{name: "params", setParams: true},
	{name: "retune", retunes: true},
	{name: "flip", flips: true},
	{name: "mixed", bursts: true, setParams: true, retunes: true, flips: true, noisy: true},
}

// edgeCoverage counts the program ops that met the edge they aimed at,
// so the table can be checked for vacuity.
type edgeCoverage struct {
	paramsMidDefer, retuneMidDefer, retuneMidFrame, flipsUnderCarrier int
}

// edgeProbeOffset puts every probe 12.345679 ms past a whole 100 ms,
// an odd nanosecond off the slot grids of these programs: a read at a
// slot instant would depend on whether that slot's decision ran first.
const edgeProbeOffset = 12345679 * time.Nanosecond

// edgeTrace runs one seeded program on two channels, A (3–5 stations)
// and B (2), and returns its trace.
func edgeTrace(k edgeKind, seed int64, cov *edgeCoverage) string {
	s := sim.NewScheduler(seed)
	plan := rand.New(rand.NewSource(seed))
	chA, chB := NewChannel(s, 1200), NewChannel(s, 1200)
	if k.noisy {
		chA.BitErrorRate, chB.BitErrorRate = 1e-4, 1e-4
	}
	var tr strings.Builder
	lastRx, lastLen := sim.Time(-1), 0
	// endRx closes an open rx line before any other record.
	endRx := func() {
		if lastRx >= 0 {
			tr.WriteByte('\n')
			lastRx = -1
		}
	}
	var rfs []*Transceiver
	attach := func(ch *Channel, name string) {
		rf := ch.Attach(name, DefaultParams())
		rf.SetReceiver(func(f []byte, damaged bool) {
			// One line per transmission: its receivers in delivery
			// order, "!" marking a damaged copy.
			if s.Now() != lastRx || len(f) != lastLen {
				endRx()
				lastRx, lastLen = s.Now(), len(f)
				fmt.Fprintf(&tr, "%v rx %d", lastRx, len(f))
			}
			fmt.Fprintf(&tr, " %s", name)
			if damaged {
				tr.WriteByte('!')
			}
		})
		rfs = append(rfs, rf)
	}
	nA := 3 + plan.Intn(3)
	for i := 0; i < nA; i++ {
		attach(chA, fmt.Sprintf("A%d", i))
	}
	attach(chB, "B0")
	attach(chB, "B1")

	const span = 45 * time.Second
	at := func() sim.Time { return sim.Time(plan.Int63n(int64(span))) }
	pick := func(want func(*Transceiver) bool) *Transceiver {
		var c []*Transceiver
		for _, rf := range rfs {
			if want(rf) {
				c = append(c, rf)
			}
		}
		if len(c) == 0 {
			return nil
		}
		return c[plan.Intn(len(c))]
	}
	deferring := func(rf *Transceiver) bool { return rf.AccessPending() && !rf.Transmitting() }

	// Traffic: single frames, and in bursty programs several frames
	// piled onto one queue.
	for i := 0; i < 30; i++ {
		rf := rfs[plan.Intn(len(rfs))]
		n := 1
		if k.bursts && plan.Intn(3) == 0 {
			n = 2 + plan.Intn(4)
		}
		size := 16 + plan.Intn(240)
		s.At(at(), func() {
			for j := 0; j < n; j++ {
				rf.Send(make([]byte, size))
			}
		})
	}
	// Edge ops draw their target when they fire, from the stations in
	// the state they aim at, so they land mid-defer or mid-frame.
	if k.setParams {
		for i := 0; i < 8; i++ {
			slot := []time.Duration{40, 70, 100, 150}[plan.Intn(4)] * time.Millisecond
			persist := []float64{0.1, 0.25, 0.6, 1}[plan.Intn(4)]
			full := plan.Intn(8) == 0
			s.At(at(), func() {
				rf := pick(deferring)
				if rf == nil {
					return
				}
				cov.paramsMidDefer++
				p := rf.Params
				p.SlotTime, p.Persist, p.FullDuplex = slot, persist, full
				rf.SetParams(p)
			})
		}
	}
	if k.retunes {
		for i := 0; i < 8; i++ {
			midFrame := plan.Intn(2) == 0
			s.At(at(), func() {
				var rf *Transceiver
				if midFrame {
					rf = pick(func(rf *Transceiver) bool { return rf.Transmitting() })
				} else {
					rf = pick(deferring)
				}
				if rf == nil {
					return
				}
				if midFrame {
					cov.retuneMidFrame++
				} else {
					cov.retuneMidDefer++
				}
				to := chA
				if rf.Channel() == chA {
					to = chB
				}
				rf.Retune(to)
			})
		}
	}
	if k.flips {
		for i := 0; i < 10; i++ {
			back := time.Duration(1+plan.Intn(4000)) * time.Millisecond
			s.At(at(), func() {
				tx := pick(func(rf *Transceiver) bool { return rf.Transmitting() })
				if tx == nil {
					return
				}
				ch := tx.Channel()
				rx := pick(func(rf *Transceiver) bool { return rf != tx && rf.Channel() == ch && deferring(rf) })
				if rx == nil {
					return
				}
				cov.flipsUnderCarrier++
				ch.SetReachable(tx, rx, false)
				s.After(back, func() {
					if tx.Channel() == ch && rx.Channel() == ch {
						ch.SetReachable(tx, rx, true)
					}
				})
			})
		}
	}
	for p := edgeProbeOffset; p < span+20*time.Second; p += 2300 * time.Millisecond {
		s.At(sim.Time(p), func() {
			endRx()
			fmt.Fprintf(&tr, "%v probe", s.Now())
			for _, rf := range rfs {
				cs := "-"
				if rf.CarrierSense() {
					cs = "+"
				}
				fmt.Fprintf(&tr, " %s=%d,%d,%s", rf.Name, rf.CSMADeferrals(), rf.QueueLen(), cs)
			}
			tr.WriteByte('\n')
		})
	}
	s.Run()
	endRx()
	for _, rf := range rfs {
		fmt.Fprintf(&tr, "final %s %+v\n", rf.Name, rf.Stats)
	}
	fmt.Fprintf(&tr, "A %+v waiters=%d\nB %+v waiters=%d\n", chA.Stats, chA.Waiters(), chB.Stats, chB.Waiters())
	return tr.String()
}

func TestCSMAEdgesGolden(t *testing.T) {
	var got bytes.Buffer
	var cov edgeCoverage
	for _, k := range edgeKinds {
		for seed := int64(1); seed <= 6; seed++ {
			fmt.Fprintf(&got, "== %s seed %d\n", k.name, seed)
			got.WriteString(edgeTrace(k, seed, &cov))
		}
	}
	if cov.paramsMidDefer == 0 || cov.retuneMidDefer == 0 ||
		cov.retuneMidFrame == 0 || cov.flipsUnderCarrier == 0 {
		t.Fatalf("the program table misses an edge: %+v", cov)
	}
	golden := filepath.Join("testdata", "csma_edges.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("edge trace drifted from the golden file at line %d:\n got:  %s\n want: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("edge trace has %d lines, golden %d", len(gl), len(wl))
	}
}
