package world

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"packetradio/internal/ax25"
)

// TestBystanderNeverEntersFromRadio pins the addressee walk's contract
// (DESIGN.md §3b) on one frame: a station whose callsign does not match
// a unicast frame never enters its TNC's fromRadio, yet its settled
// FramesHeard and its TNC's settled Filtered count the frame, through
// the accessors and through the registry.
func TestBystanderNeverEntersFromRadio(t *testing.T) {
	lw := NewLarge(LargeConfig{Seed: 1, Stations: 3, Channels: 1, NoAutoARP: true})
	enc, err := ax25.NewUI(ax25.MustAddr("S1"), ax25.MustAddr("S0"), ax25.PIDNone, []byte("for S1")).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	frame := ax25.AppendFCS(enc)
	handed := map[string]int{}
	for _, rf := range lw.Channels[0].Stations() {
		rx, name := rf.Receiver(), rf.Name
		rf.SetReceiver(func(f []byte, damaged bool) {
			if bytes.Equal(f, frame) {
				handed[name]++
			}
			rx(f, damaged)
		})
	}
	lw.Stations[0].Radio("pr0").RF.Send(frame)
	lw.W.Run(10 * time.Second)

	if got := fmt.Sprint(handed); got != "map[S1:1]" {
		t.Fatalf("the frame for S1 was handed to %s, want only S1", got)
	}
	if got := lw.Stations[1].Radio("pr0").TNC.Stats.ToHost; got != 1 {
		t.Fatalf("S1's TNC passed %d frames up, want 1", got)
	}
	by := lw.Stations[2].Radio("pr0")
	if by.RF.Stats.FramesHeard != 0 || by.TNC.Stats.Filtered != 0 {
		t.Fatalf("bystander's raw counters moved: heard %d, filtered %d", by.RF.Stats.FramesHeard, by.TNC.Stats.Filtered)
	}
	if by.RF.FramesHeard() != 1 || by.TNC.Filtered() != 1 {
		t.Fatalf("bystander settled heard %d, filtered %d; want 1 and 1", by.RF.FramesHeard(), by.TNC.Filtered())
	}
	reg := lw.W.Registry()
	for name, want := range map[string]float64{
		"host.st2.pr0.rf.frames_heard": 1,
		"host.st2.pr0.tnc.filtered":    1,
		"host.gw1.pr0.tnc.filtered":    1,
		"radio.145_01.frames_heard":    3, // S1, S2 and GW1
	} {
		if got, _ := reg.Value(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestRegionalBystandersRunNoCallback: on the regional-1000 world
// (single loop), no receiver on a channel is ever handed an intact
// frame it does not take — every one is for its callsign or a group
// address — and the receptions settled in bulk still add up: the
// channel's settled FramesHeard is the sum of its stations'.
func TestRegionalBystandersRunNoCallback(t *testing.T) {
	lw := NewLarge(LargeConfig{Seed: 1, Stations: 1000, Channels: 40, PingInterval: time.Minute})
	ch := lw.Channels[0]
	for _, rf := range ch.Stations() {
		rx, call := rf.Receiver(), ax25.MustAddr(rf.Name)
		rf.SetReceiver(func(f []byte, damaged bool) {
			if body, ok := ax25.CheckFCS(f); ok && !damaged {
				if fr, err := ax25.Decode(body); err == nil && fr.LinkDst() != call &&
					fr.LinkDst() != ax25.Broadcast && fr.Dst != ax25.Broadcast && fr.Dst != ax25.Nodes {
					t.Errorf("%v: %s was handed a frame for %v", lw.W.Sched.Now(), call, fr.LinkDst())
				}
			}
			rx(f, damaged)
		})
	}
	lw.W.Run(3 * time.Minute)
	var heard, passed uint64
	for _, rf := range ch.Stations() {
		heard += rf.FramesHeard()
		passed += rf.Passed()
	}
	if passed == 0 {
		t.Fatal("no reception was settled in bulk: the addressee walk never ran")
	}
	if heard != ch.FramesHeard() {
		t.Fatalf("stations' settled FramesHeard sum to %d, the channel's is %d", heard, ch.FramesHeard())
	}
}
