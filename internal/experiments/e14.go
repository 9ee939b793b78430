package experiments

import (
	"fmt"
	"io"
	"time"

	"packetradio/internal/world"
)

// ScalePoint is one deterministic measurement of the simulator
// stepping an N-station world (the E14 instrument). Everything except
// SimSPerWallS is a pure function of the seed: event counts, delivery
// and channel occupancy come off the virtual clock.
type ScalePoint struct {
	Stations int
	Channels int

	SimSPerWallS  float64 // wall-clock dependent: never asserted or gated
	EventsPerSimS float64 // deterministic: scheduler events per simulated second
	Delivery      float64 // deterministic: ping replies / requests
	Deferrals     uint64  // deterministic: CSMA slot deferrals, all stations
	Utilization   float64 // deterministic: mean channel airtime share over the run
}

// scaleMemo caches ScaleRun results per n within one process: E14, the
// bench writer and the CI event gate all step the same deterministic
// worlds, so repeat invocations would only re-derive identical numbers
// (SimSPerWallS keeps the first run's wall reading — it is
// machine-relative and never asserted).
var scaleMemo = map[int]ScalePoint{}

// ScaleRun steps the standard scale world — N stations round-robin
// over N/25 channels, each channel behind its own gateway, every
// station pinging the Internet host once a minute — for three
// simulated minutes after a 30 s warm-up. E14 reports it, and the CI
// event gate recomputes the event counts and holds them to
// BENCH_simcore.json exactly. Results are memoized per process.
func ScaleRun(n int) ScalePoint {
	if pt, ok := scaleMemo[n]; ok {
		return pt
	}
	pt := scaleRunFresh(n)
	scaleMemo[n] = pt
	return pt
}

func scaleRunFresh(n int) ScalePoint {
	lw := world.NewLarge(world.LargeConfig{
		Seed:         1,
		Stations:     n,
		PingInterval: time.Minute,
	})
	// Warm up ARP caches and the first ping wave untimed.
	lw.W.Run(30 * time.Second)
	firedBefore := lw.W.Sched.Fired()
	const simWindow = 3 * time.Minute
	wallStart := time.Now()
	lw.W.Run(simWindow)
	wall := time.Since(wallStart)
	if wall <= 0 {
		wall = time.Nanosecond
	}
	pt := ScalePoint{
		Stations:      n,
		Channels:      len(lw.Channels),
		SimSPerWallS:  simWindow.Seconds() / wall.Seconds(),
		EventsPerSimS: float64(lw.W.Sched.Fired()-firedBefore) / simWindow.Seconds(),
		Delivery:      lw.DeliveryRatio(),
	}
	for _, st := range lw.Stations {
		pt.Deferrals += st.Radio("pr0").RF.CSMADeferrals()
	}
	for _, gw := range lw.Gateways {
		pt.Deferrals += gw.Radio("pr0").RF.CSMADeferrals()
	}
	for _, ch := range lw.Channels {
		pt.Utilization += ch.Utilization()
	}
	pt.Utilization /= float64(len(lw.Channels))
	return pt
}

// E14 measures the simulator's own scaling — the payoff of the
// burst-mode serial datapath (DESIGN.md §3b) and the carrier-edge CSMA
// (§3c) that replaced the seed's per-byte and per-slot event chains.
// For N stations (spread over N/25 channels, each behind its own
// gateway, every station pinging the Internet host once a minute) it
// reports simulated-seconds-per-wall-second, events per simulated
// second, the traffic delivery ratio, and the channel occupancy and
// deferrals that explain the delivery dip as N grows: 25 stations
// share one 1200 bps channel, so past N=10 each channel runs near its
// airtime budget, deferral chains stretch, and some ICMP exchanges die
// to collisions and queue drops. (Under the strict-RFC-826 mix —
// LargeConfig.NoAutoARP — ARP retry storms pile on top and delivery
// collapses outright; the auto-ARP default keeps the channels just past
// the E10 knee instead.) Unlike E1–E13 this experiment reads the wall
// clock: the sim rate is a property of the machine it runs on, so only
// its shape (200 stations complete, rate stays usable) is asserted,
// never exact values — but the event counts are deterministic, and the
// CI event gate pins them to BENCH_simcore.json.
func E14(w io.Writer) *Result {
	r := newResult("E14")
	t := newTable(w, "E14", "background ping load, 60 s interval, 3 simulated minutes timed per N")
	t.row("stations", "channels", "sim-s/wall-s", "events/sim-s", "delivered", "util", "deferrals")

	for _, n := range []int{10, 50, 100, 200} {
		pt := ScaleRun(n)
		t.row(n, pt.Channels, fmt.Sprintf("%.0f", pt.SimSPerWallS),
			fmt.Sprintf("%.0f", pt.EventsPerSimS), fmt.Sprintf("%.0f%%", pt.Delivery*100),
			fmt.Sprintf("%.0f%%", pt.Utilization*100), pt.Deferrals)
		key := fmt.Sprintf("_n%d", n)
		r.set("sim_s_per_wall_s"+key, pt.SimSPerWallS)
		r.set("events_per_sim_s"+key, pt.EventsPerSimS)
		r.set("delivery"+key, pt.Delivery)
		r.set("utilization"+key, pt.Utilization)
		r.set("deferrals"+key, float64(pt.Deferrals))
	}
	t.flush()
	fmt.Fprintln(w, "   (wall-clock dependent: the table shape — not the numbers — is the claim;")
	fmt.Fprintln(w, "    before burst mode a 200-station world was impractical to step at all;")
	fmt.Fprintln(w, "    ~25 stations per 1200 bps channel run just past the E10 knee — the util")
	fmt.Fprintln(w, "    column — so delivery dips rather than collapses)")
	return r
}
