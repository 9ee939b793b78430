package world

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// The world-level CSMA equivalence: a full multi-channel scale world
// stepped under carrier-edge wakeups must agree on every observable —
// traffic delivered, per-station transmit and deferral counts, channel
// airtime — with the seed's per-slot polling, whose answer is the
// golden file (see burst_equiv_test.go for where it came from). The
// event-count saving is asserted at the channel level, against the
// live per-slot oracle (radio's TestEventDrivenCSMAFiresFewerEvents),
// and TestEventGate pins the world's absolute counts.
func TestLargeWorldCSMAEquivalence(t *testing.T) {
	lw := largeCSMAWorld()
	var tr strings.Builder
	fmt.Fprintf(&tr, "sent=%d replies=%d\n", lw.Sent, lw.Replies)
	for i, st := range lw.Stations {
		p := st.Radio("pr0")
		fmt.Fprintf(&tr, "st%d sent=%d heard=%d damaged=%d deferrals=%d queue=%d\n",
			i, p.RF.Stats.FramesSent, p.RF.FramesHeard(), p.RF.Stats.FramesDamaged,
			p.RF.CSMADeferrals(), p.RF.QueueLen())
	}
	// Waiters() is deliberately not recorded: a station mid-defer at
	// the cutoff instant sits on the event-driven wait-list by design,
	// while the per-slot path has no wait-list at all. The
	// drain-to-zero property is asserted at quiescence in
	// internal/radio.
	for c, ch := range lw.Channels {
		fmt.Fprintf(&tr, "ch%d started=%d heard=%d damaged=%d collisions=%d airtime=%v\n",
			c, ch.Stats.FramesStarted, ch.FramesHeard(), ch.Stats.FramesDamaged,
			ch.Stats.CollisionPairs, ch.Stats.Airtime)
	}
	checkGolden(t, "large_csma.golden", tr.String())
}

// largeCSMAWorld is the 40-station world both golden files of this
// file record, run to its cutoff.
func largeCSMAWorld() *Large {
	lw := NewLarge(LargeConfig{
		Seed:         1,
		Stations:     40,
		PingInterval: 30 * time.Second,
	})
	lw.W.Run(8 * time.Minute)
	return lw
}

// TestLargeWorldRegistryGolden pins the radio-side counters as the
// registry reads them — every radio.*, rf.* and tnc.* Netstat line of
// the large_csma world — so the registry's views stay exact end to
// end whatever the counters' write side does. The golden was recorded
// at commit 3646ccb, where every one of these views read a raw Stats
// field. Columns are normalized to one space, so a longer metric name
// elsewhere in the registry does not move the file.
func TestLargeWorldRegistryGolden(t *testing.T) {
	lw := largeCSMAWorld()
	var buf bytes.Buffer
	lw.W.Netstat(&buf, "")
	var out strings.Builder
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if name := f[0]; strings.HasPrefix(name, "radio.") ||
			strings.Contains(name, ".rf.") || strings.Contains(name, ".tnc.") {
			fmt.Fprintf(&out, "%s %s\n", name, f[1])
		}
	}
	checkGolden(t, "large_csma_registry.golden", out.String())
}
