package dama

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Directed-asymmetry regressions (the ROADMAP "asymmetric links"
// scenario gap): SetReachable is a one-way cut, and a polled MAC has a
// sharper failure mode than CSMA — a slave that hears the master but
// not vice versa answers every poll into the void, and the master must
// time out cleanly rather than wedge the poll list on it.

func TestOneWayLinkSlaveUnheard(t *testing.T) {
	n := newTestNet(21, "GW", "S1", "S2")
	n.s.RunFor(10 * time.Second) // GW takes mastership
	gw, s1, s2 := n.rfs["GW"], n.rfs["S1"], n.rfs["S2"]
	// S1 registers real demand first (a deep queue at burst=4 keeps its
	// reported demand nonzero across turns) …
	for j := 0; j < 40; j++ {
		s1.Send([]byte(fmt.Sprintf("S1-f%d", j)))
	}
	n.s.RunFor(15 * time.Second)
	if s1.QueueLen() == 0 {
		t.Fatal("setup: S1 drained before the cut; deepen the queue")
	}
	// … then its transmitter dies toward everyone; it still hears the
	// master, so it answers every poll into the void.
	n.ch.SetReachable(s1, gw, false)
	n.ch.SetReachable(s1, s2, false)
	for j := 0; j < 4; j++ {
		s2.Send([]byte(fmt.Sprintf("S2-f%d", j)))
	}
	n.s.RunFor(4 * time.Minute)

	// S1 was polled, answered (transmissions happened), and the master
	// timed out on every unheard answer.
	if s1.Stats.PollsHeard == 0 {
		t.Fatal("S1 never heard a poll — discovery skipped it")
	}
	if gw.Stats.PollTimeouts == 0 {
		t.Fatal("master recorded no poll timeouts over a one-way link")
	}
	if n.ctl.Stats.Demotions == 0 {
		t.Fatal("S1's stale demand was never demoted; every cycle will burn a full timeout on it")
	}
	// The healthy slave's traffic is unaffected: the poll list did not
	// wedge behind the dead turn.
	delivered := 0
	for _, h := range n.heard["GW"] {
		if strings.HasPrefix(h, "S2-f") {
			delivered++
		}
	}
	if delivered != 4 {
		t.Fatalf("S2 delivered %d/4 frames behind the one-way slave, want all 4", delivered)
	}
	// S1 keeps hearing polls, so it must never self-elect into a duel.
	if m := n.ctl.byRF[s1]; m.master {
		t.Fatal("one-way slave self-elected despite hearing the master's polls")
	}
	if n.ch.Waiters() != 0 {
		t.Fatalf("wait-list leaked %d entries", n.ch.Waiters())
	}
}

func TestOneWayLinkHealRestoresService(t *testing.T) {
	n := newTestNet(22, "GW", "S1")
	n.s.RunFor(10 * time.Second)
	gw, s1 := n.rfs["GW"], n.rfs["S1"]
	n.ch.SetReachable(s1, gw, false)
	// A frame transmitted into the one-way void is lost at the MAC —
	// DAMA guarantees collision-freedom, not delivery; reliability
	// stays an upper-layer concern exactly as under CSMA.
	s1.Send([]byte("while-broken"))
	n.s.RunFor(2 * time.Minute)
	if s1.QueueLen() != 0 {
		t.Fatalf("S1 held %d frames instead of answering its polls", s1.QueueLen())
	}
	pollsBefore := s1.Stats.PollsHeard
	n.ch.SetReachable(s1, gw, true)
	n.s.RunFor(time.Minute)
	s1.Send([]byte("after-heal"))
	n.s.RunFor(2 * time.Minute)
	// Discovery re-found the healed slave and service resumed.
	found := false
	for _, h := range n.heard["GW"] {
		if strings.HasPrefix(h, "after-heal@") {
			found = true
		}
	}
	if !found {
		t.Fatal("frame sent after the heal never delivered — the slave stayed demoted forever")
	}
	if s1.Stats.PollsHeard <= pollsBefore {
		t.Fatal("no polls reached the slave after the heal")
	}
	if gw.Stats.PollTimeouts == 0 {
		t.Fatal("the outage produced no poll timeouts; the cut never bit")
	}
}
