package radio

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"packetradio/internal/sim"
)

// The channel-level CSMA equivalence regression: identical seeded
// traffic run once over the seed's per-slot polling (the perSlotCSMA
// oracle) and once over the event-driven carrier-edge path must produce the identical trace —
// every delivery at the identical virtual timestamp with the identical
// damage flag, slot-exact deferral counters at arbitrary mid-run probe
// instants, and identical final per-station and channel stats. This is
// the guarantee that lets every experiment keep its measured numbers
// after the contention refactor, exactly as the burst-mode serial
// equivalence test did for PR 3.

// csmaTrace drives seeded pseudo-random traffic through one channel in
// the given contention mode and returns the full observable trace.
func csmaTrace(t *testing.T, perSlot bool, stations int, ber float64, hidden bool) string {
	t.Helper()
	s := sim.NewScheduler(7)
	ch := NewChannel(s, 1200)
	ch.BitErrorRate = ber
	var tr strings.Builder
	rfs := make([]*Transceiver, stations)
	for i := range rfs {
		rf := ch.Attach(fmt.Sprintf("S%d", i), DefaultParams())
		if perSlot {
			usePerSlot(rf)
		}
		i := i
		rf.SetReceiver(func(f []byte, damaged bool) {
			fmt.Fprintf(&tr, "%v S%d len=%d damaged=%v\n", s.Now(), i, len(f), damaged)
		})
		rfs[i] = rf
	}
	if hidden {
		// S0 and S1 cannot hear each other: the classic hidden-terminal
		// pair amid stations that hear both.
		ch.SetReachable(rfs[0], rfs[1], false)
		ch.SetReachable(rfs[1], rfs[0], false)
	}
	// The traffic plan comes from a fixed local source (not the
	// scheduler's), so both modes see byte-identical send schedules.
	plan := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		st := rfs[plan.Intn(stations)]
		at := time.Duration(plan.Int63n(int64(90 * time.Second)))
		size := 16 + plan.Intn(200)
		s.At(sim.Time(at), func() { st.Send(make([]byte, size)) })
	}
	// Sample the slot-exact deferral counters mid-run, while carriers
	// are up and stations sit deferred: the settling accessor must agree
	// with per-slot polling at any instant, not just at quiescence.
	for k := 1; k < 24; k++ {
		probe := time.Duration(k)*5*time.Second + 37*time.Millisecond
		s.At(sim.Time(probe), func() {
			for i, rf := range rfs {
				fmt.Fprintf(&tr, "%v S%d deferrals=%d queue=%d carrier=%v\n",
					s.Now(), i, rf.CSMADeferrals(), rf.QueueLen(), rf.CarrierSense())
			}
		})
	}
	s.Run()
	for i, rf := range rfs {
		fmt.Fprintf(&tr, "final S%d %+v\n", i, rf.Stats)
	}
	fmt.Fprintf(&tr, "channel %+v waiters=%d\n", ch.Stats, ch.Waiters())
	return tr.String()
}

func diffTraces(t *testing.T, old, ev string) {
	t.Helper()
	if old == ev {
		return
	}
	ol, el := strings.Split(old, "\n"), strings.Split(ev, "\n")
	for i := 0; i < len(ol) && i < len(el); i++ {
		if ol[i] != el[i] {
			t.Fatalf("traces diverge at line %d:\n per-slot: %s\n event:    %s", i, ol[i], el[i])
		}
	}
	t.Fatalf("trace lengths differ: %d per-slot vs %d event lines", len(ol), len(el))
}

func TestCSMAModeEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		stations int
		ber      float64
		hidden   bool
	}{
		{"clean-3", 3, 0, false},
		{"noisy-5", 5, 1e-4, false},
		{"hidden-4", 4, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := csmaTrace(t, true, tc.stations, tc.ber, tc.hidden)
			ev := csmaTrace(t, false, tc.stations, tc.ber, tc.hidden)
			if !strings.Contains(old, "damaged=") || !strings.Contains(old, "deferrals=") {
				t.Fatal("trace is vacuous")
			}
			diffTraces(t, old, ev)
		})
	}
}

// The point of the refactor: the same contention resolves with far
// fewer scheduler events once deferred stations wake on carrier edges
// instead of polling every SlotTime.
func TestEventDrivenCSMAFiresFewerEvents(t *testing.T) {
	count := func(perSlot bool) uint64 {
		s := sim.NewScheduler(3)
		ch := NewChannel(s, 1200)
		rfs := make([]*Transceiver, 6)
		for i := range rfs {
			rfs[i] = ch.Attach(fmt.Sprintf("S%d", i), DefaultParams())
			if perSlot {
				usePerSlot(rfs[i])
			}
		}
		// Everyone piles on at once: long mutual deferral chains, the
		// E14 hot spot in miniature.
		for _, rf := range rfs {
			for j := 0; j < 10; j++ {
				rf.Send(make([]byte, 180))
			}
		}
		s.Run()
		for i, rf := range rfs {
			if rf.Stats.FramesSent != 10 {
				t.Fatalf("S%d sent %d frames, want 10 (perSlot=%v)", i, rf.Stats.FramesSent, perSlot)
			}
		}
		if ch.Waiters() != 0 {
			t.Fatalf("%d waiters leaked (perSlot=%v)", ch.Waiters(), perSlot)
		}
		return s.Fired()
	}
	old, ev := count(true), count(false)
	if ev*3 > old {
		t.Fatalf("event-driven CSMA fired %d events vs %d per-slot — want at least a 3x reduction", ev, old)
	}
}
