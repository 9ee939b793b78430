package radio

import (
	"testing"
	"time"

	"packetradio/internal/sim"
)

// These tests cover the channel tap and the airtime accounting across
// Retune.

func TestChannelTapSeesOutcomes(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("a", fastParams())
	b := ch.Attach("b", fastParams())
	var rb capture
	b.SetReceiver(rb.rx)

	type tapEvent struct {
		sender, receiver string
		outcome          TapOutcome
	}
	var taps []tapEvent
	ch.Tap = func(sender, receiver *Transceiver, payload []byte, outcome TapOutcome, consumed bool) {
		taps = append(taps, tapEvent{sender.Name, receiver.Name, outcome})
	}

	a.Send([]byte("clean"))
	s.Run()
	if len(taps) != 1 || taps[0] != (tapEvent{"a", "b", TapOK}) {
		t.Fatalf("clean delivery taps: %+v", taps)
	}

	// Two hidden senders -> the receiver's copies collide.
	taps = nil
	ch.SetReachable(a, b, true)
	c := ch.Attach("c", fastParams())
	ch.SetReachable(a, c, false)
	ch.SetReachable(c, a, false)
	a.Send([]byte("one"))
	c.Send([]byte("two"))
	s.Run()
	sawCollision := false
	for _, te := range taps {
		if te.receiver == "b" && te.outcome == TapCollision {
			sawCollision = true
		}
	}
	if !sawCollision {
		t.Fatalf("hidden-terminal collision not tapped: %+v", taps)
	}
}

func TestRetuneRefundsUnairedAirtime(t *testing.T) {
	s := sim.NewScheduler(1)
	ch1 := NewChannel(s, 1200)
	ch2 := NewChannel(s, 1200)
	a := ch1.Attach("a", fastParams())
	ch1.Attach("b", fastParams())

	frame := make([]byte, 300) // 2 s of airtime at 1200 bps
	a.Send(frame)
	// Let the transmission start (TXDelay 100 ms), then cut it 500 ms
	// into the air run.
	s.RunFor(600 * time.Millisecond)
	if len(ch1.active) != 1 {
		t.Fatal("transmission did not start")
	}
	aired := s.Now().Sub(ch1.active[0].start)
	a.Retune(ch2)
	s.Run()

	// The sender's airtime stat must reflect only what was actually
	// keyed on ch1 before the cut — not the full frame length — and
	// the channel's aggregate must agree, or Utilization() drifts on
	// every MoveHost.
	if a.Stats.Airtime != aired {
		t.Fatalf("sender airtime = %v, want the %v actually aired before the cut", a.Stats.Airtime, aired)
	}
	if ch1.Stats.Airtime != aired {
		t.Fatalf("channel airtime = %v, want %v", ch1.Stats.Airtime, aired)
	}
}
