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

// timedRun builds the regional world cfg describes, lets attach (when
// non-nil) hook observers onto it before its first event, warms it up
// untimed for 30 s — ARP, the first probe wave and, under DAMA, the
// gateway's master election — and then steps a three-minute window.
// It returns the world and the window's scheduler events per simulated
// second and simulated seconds per wall second.
func timedRun(cfg world.LargeConfig, attach func(*world.Large)) (lw *world.Large, eventsPerSimS, simSPerWallS float64) {
	lw = world.NewLarge(cfg)
	if attach != nil {
		attach(lw)
	}
	lw.W.Run(30 * time.Second)
	firedBefore := lw.W.Sched.Fired()
	const simWindow = 3 * time.Minute
	wallStart := time.Now()
	lw.W.Run(simWindow)
	wall := max(time.Since(wallStart), time.Nanosecond)
	return lw, float64(lw.W.Sched.Fired()-firedBefore) / simWindow.Seconds(), simWindow.Seconds() / wall.Seconds()
}

// ScaleRun steps the standard scale world — N stations round-robin
// over N/25 channels, each channel behind its own gateway, every
// station pinging the Internet host once a minute — for three
// simulated minutes after a 30 s warm-up. E14 reports it, and the CI
// event gate recomputes the event counts and holds them to
// BENCH_simcore.json exactly. attach, when non-nil, hooks observers
// onto the world before its first event: the event gate's tracing
// pair attaches the packet tracer, which must not move a count.
func ScaleRun(n int, attach func(*world.Large)) ScalePoint {
	lw, events, rate := timedRun(world.LargeConfig{
		Seed:         1,
		Stations:     n,
		PingInterval: time.Minute,
	}, attach)
	pt := ScalePoint{
		Stations:      n,
		Channels:      len(lw.Channels),
		SimSPerWallS:  rate,
		EventsPerSimS: events,
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
// reports events per simulated second, the traffic delivery ratio,
// and the channel occupancy and deferrals that explain the delivery
// dip as N grows: 25 stations
// share one 1200 bps channel, so past N=10 each channel runs near its
// airtime budget, deferral chains stretch, and some ICMP exchanges die
// to collisions and queue drops. (Under the strict-RFC-826 mix —
// LargeConfig.NoAutoARP — ARP retry storms pile on top and delivery
// collapses outright; the auto-ARP default keeps the channels just past
// the E10 knee instead.) The event counts are deterministic, and the
// CI event gate pins them to BENCH_simcore.json. The result also
// carries each world's sim-s/wall-s, a single wall-clock sample that
// the table leaves out: only its shape (200 stations complete, the
// rate stays usable) is asserted, never its value, and prbench in
// bench/ measures wall time with repeats and spread.
func E14(w io.Writer) *Result {
	r := newResult("E14")
	t := newTable(w, "E14", "background ping load, 60 s interval, 3 simulated minutes timed per N")
	t.row("stations", "channels", "events/sim-s", "delivered", "util", "deferrals")

	for _, n := range []int{10, 50, 100, 200} {
		pt := ScaleRun(n, nil)
		t.row(n, pt.Channels,
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
	fmt.Fprintln(w, "   (before burst mode a 200-station world was impractical to step at all;")
	fmt.Fprintln(w, "    ~25 stations per 1200 bps channel run just past the E10 knee — the util")
	fmt.Fprintln(w, "    column — so delivery dips rather than collapses)")
	return r
}
