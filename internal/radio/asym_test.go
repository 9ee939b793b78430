package radio

import (
	"testing"
	"time"

	"packetradio/internal/sim"
)

// Directed-asymmetry regressions for edge-driven CSMA (the ROADMAP
// "asymmetric links" gap, CSMA half — internal/dama carries the DAMA
// half): one-way SetReachable cuts interact with the carrier-edge
// wait-list, and a waiter must re-resolve rather than sleep against a
// carrier it can no longer hear — or transmit over one it cannot.

// A one-way cut landing mid-defer is an early carrier release for the
// waiter: it stops hearing the active transmission and must move its
// wake up instead of sleeping to the stale end-of-frame.
func TestOneWayCutReleasesWaiterEarly(t *testing.T) {
	s := sim.NewScheduler(31)
	ch := NewChannel(s, 1200)
	p := DefaultParams()
	p.Persist = 1.0
	talker := ch.Attach("TLK", p)
	waiter := ch.Attach("WTR", p)
	talker.Send(make([]byte, 1400)) // ~9.7 s carrier
	s.RunFor(time.Second)
	waiter.Send(make([]byte, 60))
	s.RunFor(time.Second)
	if ch.Waiters() != 1 {
		t.Fatalf("waiters = %d, want 1 parked behind the talker", ch.Waiters())
	}
	// The link talker→waiter goes one-way deaf; talker still hears
	// waiter, so this is pure carrier-schedule change, not a retune.
	ch.SetReachable(talker, waiter, false)
	start := s.Now()
	s.Run()
	if waiter.Stats.FramesSent != 1 {
		t.Fatalf("waiter sent %d frames, want 1", waiter.Stats.FramesSent)
	}
	// The waiter's own transmission (key-up + ~0.7 s airtime) must end
	// within a couple of slots of the cut, not at the stale carrier's
	// end-of-frame ~7.6 s later.
	if done := waiter.txEnd.Sub(start); done > 2*time.Second {
		t.Fatalf("waiter finished %v after the cut — it slept against a carrier it could no longer hear", done)
	}
	if ch.Waiters() != 0 {
		t.Fatalf("wait-list leaked %d entries", ch.Waiters())
	}
	// The overlap is real on the talker's side of the asymmetry: both
	// were on the air at once, so any third station hearing both would
	// have lost the frames — here there is none, so no damage pair.
	if talker.Stats.FramesSent != 1 {
		t.Fatalf("talker sent %d frames, want 1", talker.Stats.FramesSent)
	}
}

// The reverse direction arriving mid-defer (a carrier appearing for a
// station that could not hear it before) pushes the wake later, and
// the deferral settlement stays slot-exact in both CSMA modes.
func TestOneWayHealExtendsDeferral(t *testing.T) {
	for _, perSlot := range []bool{false, true} {
		s := sim.NewScheduler(32)
		ch := NewChannel(s, 1200)
		p := DefaultParams()
		p.Persist = 1.0
		talker := ch.Attach("TLK", p)
		waiter := ch.Attach("WTR", p)
		if perSlot {
			usePerSlot(talker)
			usePerSlot(waiter)
		}
		ch.SetReachable(talker, waiter, false) // starts deaf to talker
		talker.Send(make([]byte, 1400))        // ~9.7 s carrier, inaudible
		s.RunFor(time.Second)
		var collided bool
		done := make(chan struct{})
		_ = done
		waiter.SetReceiver(func(_ []byte, damaged bool) { collided = collided || damaged })
		// Heal the direction before the waiter's first decision slot:
		// from the waiter's view a carrier just appeared.
		ch.SetReachable(talker, waiter, true)
		waiter.Send(make([]byte, 60))
		s.Run()
		if waiter.Stats.FramesSent != 1 {
			t.Fatalf("perSlot=%v: waiter sent %d frames, want 1", perSlot, waiter.Stats.FramesSent)
		}
		if waiter.CSMADeferrals() == 0 {
			t.Fatalf("perSlot=%v: no deferrals recorded against the healed carrier", perSlot)
		}
		if ch.Waiters() != 0 {
			t.Fatalf("perSlot=%v: wait-list leaked %d entries", perSlot, ch.Waiters())
		}
	}
}
