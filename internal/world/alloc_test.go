package world

import (
	"testing"
	"time"

	"packetradio/internal/pool"
)

// TestWarmDatapathAllocatesNothing holds the regional datapath to its
// free lists (DESIGN.md §3b): once warm, an ICMP probe from a station
// through its channel, its gateway and the Ethernet to the Internet
// host and back allocates nothing, and an RDM probe round trip
// allocates only the two messages handed to socket readers, the echo
// server's and the prober's.
func TestWarmDatapathAllocatesNothing(t *testing.T) {
	if pool.Checking {
		t.Skip("poolcheck build: the free-list checks allocate")
	}
	for _, tc := range []struct {
		name      string
		transport TransportMode
		max       float64
	}{{"icmp probe", TransportICMP, 0}, {"rdm probe", TransportRDM, 2}} {
		lw := NewLarge(LargeConfig{Seed: 1, Stations: 2, Channels: 1, Transport: tc.transport})
		lw.ArmProbers()
		var want uint64
		done := func() bool { return lw.Replies >= want }
		probe := func() {
			want = lw.Replies + 1
			lw.Probe(0)
			lw.W.Sched.RunUntilDone(lw.W.Sched.Now().Add(time.Minute), done)
			if lw.Replies < want {
				t.Fatalf("%s: probe %d lost", tc.name, want)
			}
		}
		for i := 0; i < 20; i++ {
			probe()
		}
		allocs := testing.AllocsPerRun(200, probe)
		t.Logf("%s: %.0f objects per round trip", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("a warm %s allocates %.0f objects per round trip, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}
