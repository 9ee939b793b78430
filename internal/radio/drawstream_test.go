package radio

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"packetradio/internal/sim"
)

// TestPlannedDrawsFollowPerSlotStream holds the draw FIFO to the
// per-slot path's draw sequence. The same program — seeded traffic
// and reachability flips at random instants — runs in both modes and
// stops 12.345679 ms past a whole second, off the slot grids, or at
// quiescence. Then each station's next persistence draws — the ones
// taken ahead for slots not yet passed, then its stream — must equal
// the per-slot path's next draws from its stream. A re-plan that drops
// a planned draw, or takes one twice, shifts every later draw and
// fails here even where the trace happens to agree.
func TestPlannedDrawsFollowPerSlotStream(t *testing.T) {
	const stations = 4
	ahead := 0 // stops where some station held draws taken ahead
	for seed := int64(1); seed <= 24; seed++ {
		stop := sim.Time(time.Duration(seed%4)*7*time.Second + 3*time.Second + 12345679)
		if seed%4 == 0 {
			stop = 0 // run to quiescence
		}
		run := func(perSlot bool) [][16]float64 {
			s := sim.NewScheduler(seed)
			ch := NewChannel(s, 1200)
			rfs := make([]*Transceiver, stations)
			for i := range rfs {
				rfs[i] = ch.Attach(fmt.Sprintf("S%d", i), DefaultParams())
				if perSlot {
					usePerSlot(rfs[i])
				}
			}
			plan := rand.New(rand.NewSource(seed))
			for i := 0; i < 16; i++ {
				st := rfs[plan.Intn(stations)]
				size := 16 + plan.Intn(200)
				s.At(sim.Time(plan.Int63n(int64(20*time.Second))), func() { st.Send(make([]byte, size)) })
			}
			for i := 0; i < 6; i++ {
				a := rfs[plan.Intn(stations)]
				b := rfs[plan.Intn(stations)]
				if a == b {
					continue
				}
				s.At(sim.Time(plan.Int63n(int64(25*time.Second))), func() {
					ch.SetReachable(a, b, !ch.reachable(a, b))
				})
			}
			if stop == 0 {
				s.Run()
			} else {
				s.RunUntil(stop)
			}
			// Planned losers before the stop were decided there, as the
			// per-slot path decided them; their draws are spent. The
			// next 16 draws span the rest of the FIFO and the stream
			// behind it.
			next := make([][16]float64, stations)
			for i, rf := range rfs {
				for len(rf.losers) > 0 && rf.losers[0] < s.Now() {
					rf.losers = rf.losers[1:]
					nextDraw(rf)
				}
				if len(rf.draws) > 0 {
					ahead++
				}
				for k := range next[i] {
					next[i][k] = nextDraw(rf)
				}
			}
			return next
		}
		slot, edge := run(true), run(false)
		for i := range slot {
			for k := range slot[i] {
				if edge[i][k] != slot[i][k] {
					t.Fatalf("seed %d stop %v: S%d's next draw %d is %v, the per-slot path's %v",
						seed, stop, i, k, edge[i][k], slot[i][k])
				}
			}
		}
	}
	if ahead == 0 {
		t.Fatal("no stop found a draw taken ahead; the test is vacuous")
	}
}

// nextDraw returns rf's next persistence draw: the oldest one taken
// ahead, else a fresh one from its stream.
func nextDraw(rf *Transceiver) float64 {
	if len(rf.draws) == 0 {
		return rf.csmaStream.Rand().Float64()
	}
	d := rf.draws[0]
	rf.draws = rf.draws[1:]
	return d
}
