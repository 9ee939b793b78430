package radio

import (
	"fmt"
	"testing"

	"packetradio/internal/sim"
)

func TestSetReachableToggle(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("A", Params{})
	b := ch.Attach("B", Params{})
	heard := 0
	b.SetReceiver(func(_ []byte, damaged bool) {
		if !damaged {
			heard++
		}
	})
	a.Send([]byte("one"))
	s.Run()
	if heard != 1 {
		t.Fatalf("baseline heard = %d", heard)
	}
	ch.SetReachable(a, b, false)
	a.Send([]byte("two"))
	s.Run()
	if heard != 1 {
		t.Fatalf("after cut heard = %d", heard)
	}
	ch.SetReachable(a, b, true)
	a.Send([]byte("three"))
	s.Run()
	if heard != 2 {
		t.Fatalf("after heal heard = %d", heard)
	}
}

func TestRetuneMovesStation(t *testing.T) {
	s := sim.NewScheduler(2)
	ch1 := NewChannel(s, 1200)
	ch2 := NewChannel(s, 1200)
	mob := ch1.Attach("MOB", Params{})
	home := ch1.Attach("HOME", Params{})
	away := ch2.Attach("AWAY", Params{})
	homeHeard, awayHeard := 0, 0
	home.SetReceiver(func(_ []byte, _ bool) { homeHeard++ })
	away.SetReceiver(func(_ []byte, _ bool) { awayHeard++ })

	mob.Send([]byte("hi"))
	s.Run()
	if homeHeard != 1 || awayHeard != 0 {
		t.Fatalf("before move: home=%d away=%d", homeHeard, awayHeard)
	}

	// A reachability cut on the old channel must not follow the
	// station to the new channel or survive its return.
	ch1.SetReachable(mob, home, false)
	mob.Retune(ch2)
	if mob.Channel() != ch2 || len(ch1.Stations()) != 1 || len(ch2.Stations()) != 2 {
		t.Fatalf("station lists after retune: ch1=%d ch2=%d", len(ch1.Stations()), len(ch2.Stations()))
	}
	mob.Send([]byte("hi"))
	s.Run()
	if homeHeard != 1 || awayHeard != 1 {
		t.Fatalf("after move: home=%d away=%d", homeHeard, awayHeard)
	}

	mob.Retune(ch1)
	mob.Send([]byte("hi"))
	s.Run()
	if homeHeard != 2 {
		t.Fatalf("after return: home=%d (stale unreachability survived)", homeHeard)
	}
}

func TestRetuneCarriesQueuedFrames(t *testing.T) {
	s := sim.NewScheduler(3)
	ch1 := NewChannel(s, 1200)
	ch2 := NewChannel(s, 1200)
	mob := ch1.Attach("MOB", Params{})
	away := ch2.Attach("AWAY", Params{})
	awayHeard := 0
	away.SetReceiver(func(_ []byte, _ bool) { awayHeard++ })

	// Queue without running the scheduler, then move: the frames must
	// go out on the new channel.
	mob.Send([]byte("q1"))
	mob.Send([]byte("q2"))
	mob.Retune(ch2)
	s.Run()
	if awayHeard != 2 {
		t.Fatalf("away heard %d queued frames, want 2", awayHeard)
	}
}

func TestRetuneMidFrameDamagesOldChannelCopy(t *testing.T) {
	s := sim.NewScheduler(4)
	ch1 := NewChannel(s, 1200)
	ch2 := NewChannel(s, 1200)
	mob := ch1.Attach("MOB", Params{})
	home := ch1.Attach("HOME", Params{})
	var intact, damaged int
	home.SetReceiver(func(_ []byte, d bool) {
		if d {
			damaged++
		} else {
			intact++
		}
	})
	mob.Send(make([]byte, 100))
	// Step until the transmission is keyed up, then drive off mid-frame.
	for s.Pending() > 0 && len(ch1.active) == 0 {
		s.Step()
	}
	if len(ch1.active) != 1 {
		t.Fatal("no transmission in flight")
	}
	mob.Retune(ch2)
	s.Run()
	if intact != 0 || damaged != 1 {
		t.Fatalf("old channel saw intact=%d damaged=%d, want a single damaged copy", intact, damaged)
	}
}

// TestRetuneKeepsDamageSeat pins the seats behind a transmission's
// damage bitset: a receiver that leaves in the middle of a collision
// and comes back is still the one marked damaged, and a station that
// arrives meanwhile — in the place the leaver had in the station list —
// inherits no mark.
func TestRetuneKeepsDamageSeat(t *testing.T) {
	s := sim.NewScheduler(5)
	ch1, ch2 := NewChannel(s, 1200), NewChannel(s, 1200)
	// Full duplex keys up without carrier sense, so the two collide.
	a := ch1.Attach("A", Params{FullDuplex: true})
	b := ch1.Attach("B", Params{FullDuplex: true})
	c := ch1.Attach("C", Params{})
	got := map[string][]bool{}
	rx := func(name string) func([]byte, bool) {
		return func(_ []byte, damaged bool) { got[name] = append(got[name], damaged) }
	}
	c.SetReceiver(rx("C"))
	a.Send(make([]byte, 100))
	b.Send(make([]byte, 100))
	for s.Pending() > 0 && len(ch1.active) < 2 {
		s.Step()
	}
	if len(ch1.active) != 2 {
		t.Fatal("the two transmissions never overlapped")
	}
	c.Retune(ch2)
	d := ch1.Attach("D", Params{})
	d.SetReceiver(rx("D"))
	c.Retune(ch1)
	s.Run()
	if want := "map[C:[true true] D:[false false]]"; fmt.Sprint(got) != want {
		t.Fatalf("receptions %v, want %s", got, want)
	}
}
