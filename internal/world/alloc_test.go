package world

import (
	"runtime"
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

// maxBuildBytesPerStation bounds what building a regional world
// allocates per station. A generator's state is about 5 KB, so a world
// that built its streams' generators at construction (a CSMA stream
// per transceiver, a shard scheduler's Rand) would allocate about
// 11 KB per station; one that builds them at their first draw
// allocates about 6 KB.
const maxBuildBytesPerStation = 7 << 10

// TestBuildAllocatesNoGenerators: building a world seeds its random
// streams but builds none of their generators (sim.Stream).
func TestBuildAllocatesNoGenerators(t *testing.T) {
	if pool.Checking {
		t.Skip("poolcheck build: the free-list checks allocate")
	}
	const stations = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	lw := NewLarge(LargeConfig{
		Seed: 1, Stations: stations, Channels: 25,
		PingInterval: time.Minute, Transport: TransportRDM,
	})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(lw)
	perStation := float64(after.TotalAlloc-before.TotalAlloc) / stations
	t.Logf("building %d stations on 25 channels allocates %.1f KB per station", stations, perStation/1024)
	if perStation > maxBuildBytesPerStation {
		t.Errorf("building a world allocates %.1f KB per station, want at most %d KB", perStation/1024, maxBuildBytesPerStation>>10)
	}
}
