package radio

import (
	"fmt"
	"testing"
	"time"

	"packetradio/internal/sim"
)

// Multi-contender coverage for the event-driven contention engine:
// every deferred station eventually transmits, the wait-list drains
// without leaks or double wakes, and Retune migrates a mid-defer
// waiter cleanly.

func TestMultiContenderFairness(t *testing.T) {
	s := sim.NewScheduler(5)
	ch := NewChannel(s, 1200)
	const k = 12
	rfs := make([]*Transceiver, k)
	heard := make([]int, k)
	for i := range rfs {
		rfs[i] = ch.Attach(fmt.Sprintf("S%d", i), DefaultParams())
		i := i
		rfs[i].SetReceiver(func(_ []byte, damaged bool) {
			if !damaged {
				heard[i]++
			}
		})
	}
	// All twelve contend for the same carrier at once, repeatedly.
	for round := 0; round < 3; round++ {
		at := sim.Time(time.Duration(round) * 5 * time.Minute)
		for _, rf := range rfs {
			rf := rf
			s.At(at, func() { rf.Send(make([]byte, 120)) })
		}
	}
	s.Run()
	for i, rf := range rfs {
		if rf.Stats.FramesSent != 3 {
			t.Fatalf("S%d transmitted %d of its 3 frames: starvation or loss (stats %+v)",
				i, rf.Stats.FramesSent, rf.Stats)
		}
		if rf.QueueLen() != 0 {
			t.Fatalf("S%d still queues %d frames at quiescence", i, rf.QueueLen())
		}
	}
	if ch.Stats.FramesStarted != 3*k {
		t.Fatalf("channel keyed up %d transmissions, want %d", ch.Stats.FramesStarted, 3*k)
	}
	if ch.Waiters() != 0 {
		t.Fatalf("wait-list leaked %d entries at quiescence", ch.Waiters())
	}
	// Contention was real: stations deferred to each other's carriers.
	var deferrals uint64
	for _, rf := range rfs {
		deferrals += rf.CSMADeferrals()
	}
	if deferrals == 0 {
		t.Fatal("no deferrals across 36 contending transmissions; test is vacuous")
	}
}

// A waiter parked under a busy carrier is woken by the carrier edge
// exactly once: one transmission out, no duplicate delivery, wait-list
// empty between contentions.
func TestWaiterWokenExactlyOnce(t *testing.T) {
	s := sim.NewScheduler(9)
	ch := NewChannel(s, 1200)
	p := DefaultParams()
	p.Persist = 1.0 // no persistence lottery: first idle slot transmits
	a := ch.Attach("A", p)
	b := ch.Attach("B", p)
	c := ch.Attach("C", p)
	var got []sim.Time
	c.SetReceiver(func(_ []byte, damaged bool) {
		if !damaged {
			got = append(got, s.Now())
		}
	})
	a.Send(make([]byte, 300)) // ~2.3 s on the air
	s.RunFor(500 * time.Millisecond)
	b.Send(make([]byte, 60)) // must park behind a's carrier
	if ch.Waiters() != 1 {
		t.Fatalf("waiters = %d while b defers, want 1", ch.Waiters())
	}
	s.Run()
	if len(got) != 2 {
		t.Fatalf("c heard %d frames, want 2 (a's then b's)", len(got))
	}
	if b.Stats.FramesSent != 1 {
		t.Fatalf("b transmitted %d times, want exactly 1 (double wake?)", b.Stats.FramesSent)
	}
	if ch.Waiters() != 0 {
		t.Fatalf("wait-list holds %d entries at quiescence", ch.Waiters())
	}
	// b's frame must start after a's carrier dropped, not at a slot
	// mid-transmission.
	if got[1] <= got[0] {
		t.Fatalf("b's frame delivered at %v, not after a's at %v", got[1], got[0])
	}
}

// Retune mid-defer migrates the waiter: off the old channel's
// wait-list, contending (and completing) on the new channel.
func TestRetuneMidDeferMigratesWaiter(t *testing.T) {
	s := sim.NewScheduler(4)
	ch1 := NewChannel(s, 1200)
	ch2 := NewChannel(s, 1200)
	p := DefaultParams()
	p.Persist = 1.0
	blocker := ch1.Attach("BLK", p)
	mob := ch1.Attach("MOB", p)
	far := ch2.Attach("FAR", p)
	farHeard := 0
	far.SetReceiver(func(_ []byte, damaged bool) {
		if !damaged {
			farHeard++
		}
	})
	blocker.Send(make([]byte, 400)) // ~3 s carrier on ch1
	s.RunFor(time.Second)
	mob.Send(make([]byte, 80)) // parks behind the blocker
	if ch1.Waiters() != 1 {
		t.Fatalf("ch1 waiters = %d before retune, want 1", ch1.Waiters())
	}
	mob.Retune(ch2)
	if ch1.Waiters() != 0 {
		t.Fatalf("ch1 wait-list kept the migrated waiter (%d entries)", ch1.Waiters())
	}
	s.Run()
	if mob.Stats.FramesSent != 1 || farHeard != 1 {
		t.Fatalf("migrated waiter sent %d frames, far heard %d, want 1/1", mob.Stats.FramesSent, farHeard)
	}
	if ch2.Waiters() != 0 {
		t.Fatalf("ch2 wait-list leaked %d entries", ch2.Waiters())
	}
}

// Retune of a transmitting station is an early carrier release for the
// stations left behind: a parked waiter must move its wake up to the
// real carrier edge rather than sleep until the cut transmission's
// original end-of-frame.
func TestRetuneCutReleasesWaiterEarly(t *testing.T) {
	s := sim.NewScheduler(6)
	ch1 := NewChannel(s, 1200)
	ch2 := NewChannel(s, 1200)
	p := DefaultParams()
	p.Persist = 1.0
	mover := ch1.Attach("MOV", p)
	waiter := ch1.Attach("WTR", p)
	ch2.Attach("FAR", p)
	mover.Send(make([]byte, 1400)) // ~9.7 s on the air
	s.RunFor(time.Second)
	waiter.Send(make([]byte, 60))
	s.RunFor(time.Second) // t=2 s: waiter parked, ~8 s of carrier left
	mover.Retune(ch2)     // cut: ch1 goes idle now
	start := s.Now()
	s.Run()
	if waiter.Stats.FramesSent != 1 {
		t.Fatalf("waiter sent %d frames, want 1", waiter.Stats.FramesSent)
	}
	// The waiter's whole transmission (keyup + ~0.7 s airtime) must
	// finish long before the cut carrier's original end (~t+9.7 s):
	// i.e. it woke at the release edge, within a slot or two.
	if done := s.Now().Sub(start); done > 2*time.Second {
		t.Fatalf("waiter finished %v after the cut — it slept past the early release", done)
	}
}

// The satellite regression for per-transceiver RNG streams: one
// station's contention outcomes are a function of its own attach
// position and traffic alone. Adding a later, unrelated station — even
// one actively transmitting — must not perturb the first station's
// backoff sequence, which the seed's shared Rand stream could not
// guarantee.
func TestBackoffSequenceInvariantUnderAddedStation(t *testing.T) {
	for _, perSlot := range []bool{false, true} {
		run := func(extra bool) string {
			s := sim.NewScheduler(12)
			ch := NewChannel(s, 1200)
			a := ch.Attach("A", DefaultParams())
			b := ch.Attach("B", DefaultParams())
			var c *Transceiver
			if extra {
				c = ch.Attach("C", DefaultParams())
				// c is radio-isolated: its transmissions reach nobody
				// and it hears nobody, so only RNG coupling could leak
				// into a's behaviour.
				for _, o := range []*Transceiver{a, b} {
					ch.SetReachable(c, o, false)
					ch.SetReachable(o, c, false)
				}
			}
			if perSlot {
				usePerSlot(a)
				usePerSlot(b)
			}
			var trace string
			// a and b trade frames so a's draws interleave with real
			// contention; c (when present) keeps its own drumbeat going.
			for i := 0; i < 10; i++ {
				at := sim.Time(time.Duration(i) * 3 * time.Second)
				s.At(at, func() { a.Send(make([]byte, 150)) })
				s.At(at.Add(200*time.Millisecond), func() { b.Send(make([]byte, 150)) })
				if extra {
					s.At(at.Add(100*time.Millisecond), func() { c.Send(make([]byte, 150)) })
				}
			}
			prev := uint64(0)
			s.Every(100*time.Millisecond, func() {
				if a.Stats.FramesSent != prev {
					prev = a.Stats.FramesSent
					trace += fmt.Sprintf("%v sent=%d deferrals=%d\n", s.Now(), prev, a.Stats.CSMADeferrals)
				}
			})
			s.RunUntil(sim.Time(2 * time.Minute))
			return trace
		}
		base := run(false)
		with := run(true)
		if base == "" {
			t.Fatal("station A never transmitted; test is vacuous")
		}
		if base != with {
			t.Fatalf("perSlot=%v: adding an isolated station changed A's backoff sequence:\n-- without --\n%s\n-- with --\n%s",
				perSlot, base, with)
		}
	}
}

// A KISS parameter frame can land while the radio sits mid-defer:
// SetParams must settle the old grid and re-anchor on the new
// SlotTime instead of letting the parked wake misinterpret history.
func TestSetParamsMidDeferReanchors(t *testing.T) {
	s := sim.NewScheduler(8)
	ch := NewChannel(s, 1200)
	p := DefaultParams()
	p.Persist = 1.0
	blocker := ch.Attach("BLK", p)
	station := ch.Attach("STA", p)
	blocker.Send(make([]byte, 400)) // ~3 s carrier
	s.RunFor(500 * time.Millisecond)
	station.Send(make([]byte, 60)) // parks behind the carrier
	s.RunFor(time.Second)          // 10 slots pass under the old 100 ms grid
	before := station.CSMADeferrals()
	np := station.Params
	np.SlotTime = 50 * time.Millisecond
	station.SetParams(np)
	if after := station.CSMADeferrals(); after < before {
		t.Fatalf("deferral count went backwards across SetParams: %d -> %d", before, after)
	}
	s.Run()
	if station.Stats.FramesSent != 1 {
		t.Fatalf("station sent %d frames after mid-defer SetParams, want 1", station.Stats.FramesSent)
	}
	if ch.Waiters() != 0 {
		t.Fatalf("wait-list leaked %d entries", ch.Waiters())
	}
	// ~15 slots passed busy (10 on the 100 ms grid, then ~2 s more on
	// the 50 ms grid): far more than the old grid alone would count,
	// far less than the whole wait re-counted at 50 ms.
	got := station.Stats.CSMADeferrals
	if got < 20 || got > 80 {
		t.Fatalf("deferrals = %d after grid re-anchor, outside the plausible [20,80] window", got)
	}
}
