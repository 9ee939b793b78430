package experiments

import (
	"fmt"
	"io"
	"time"

	"packetradio/internal/world"
)

// ParallelPoint is one deterministic measurement of the sharded engine
// against the single-loop reference on the same seeded world (the E18
// instrument). The wall-clock rates and the speedup are machine-
// relative and never asserted; everything else — event rates, replies,
// crossings — is a pure function of the seed, and the event gate holds
// the sharded engine to the sequential engine's delivery and event
// count exactly.
type ParallelPoint struct {
	Stations int
	Channels int
	Workers  int

	SeqSimSPerWallS   float64 // wall-dependent: never asserted or gated
	ShardSimSPerWallS float64 // wall-dependent: never asserted or gated
	Speedup           float64 // wall-dependent: never asserted or gated

	SeqEventsPerSimS   float64 // deterministic
	ShardEventsPerSimS float64 // deterministic: must equal SeqEventsPerSimS (gated)
	EventReduction     float64 // deterministic: seq/shard event rate ratio, 1.0

	SeqReplies   uint64  // deterministic
	ShardReplies uint64  // deterministic: must equal SeqReplies (gated)
	Delivery     float64 // deterministic: sharded replies / requests

	Crossings uint64 // deterministic: cross-shard seam messages
	Windows   uint64 // deterministic: conservative synchronization rounds

	// The two-worker bound over the timed minutes (deterministic):
	// the windows with two or more busy shards, and the timed events
	// over the group's TwoWorkerSpan — the speedup two workers could
	// reach if every event cost the same and coordination were free.
	MultiBusyWindows uint64
	Bound2W          float64
}

// parallelMemo caches ParallelRun results per cell within one process
// (E18, the bench writer and the CI event gate all step the same
// deterministic worlds).
var parallelMemo = map[[3]int]ParallelPoint{}

// ParallelRun steps the standard scale world (N stations round-robin
// over the given channel count, one gateway per channel, one ping per
// station per minute) twice with the same seed: on the single-loop
// engine and on the sharded engine with the given worker count — 30 s
// warm-up untimed, 3 simulated minutes timed, exactly the E14
// protocol. Results are memoized per process.
func ParallelRun(n, channels, workers int) ParallelPoint {
	key := [3]int{n, channels, workers}
	if pt, ok := parallelMemo[key]; ok {
		return pt
	}
	pt := parallelRunFresh(n, channels, workers)
	parallelMemo[key] = pt
	return pt
}

func parallelRunFresh(n, channels, workers int) ParallelPoint {
	const simWindow = 3 * time.Minute
	var multiBusy, span2, events uint64 // the sharded run's, over the timed window
	step := func(w int) (*world.Large, float64, float64) {
		lw := world.NewLarge(world.LargeConfig{
			Seed:         1,
			Stations:     n,
			Channels:     channels,
			PingInterval: time.Minute,
			Workers:      w,
		})
		lw.W.Run(30 * time.Second) // warm-up: ARP + first ping wave, untimed
		firedBefore := lw.W.EventsFired()
		g := lw.W.Shards()
		if g != nil {
			multiBusy, span2 = g.MultiBusyWindows(), g.TwoWorkerSpan()
		}
		wallStart := time.Now()
		lw.W.Run(simWindow)
		wall := time.Since(wallStart)
		if wall <= 0 {
			wall = time.Nanosecond
		}
		fired := lw.W.EventsFired() - firedBefore
		if g != nil {
			multiBusy, span2, events = g.MultiBusyWindows()-multiBusy, g.TwoWorkerSpan()-span2, fired
		}
		return lw, simWindow.Seconds() / wall.Seconds(), float64(fired) / simWindow.Seconds()
	}

	seq, seqRate, seqEv := step(0)
	shd, shdRate, shdEv := step(workers)
	pt := ParallelPoint{
		Stations:           n,
		Channels:           channels,
		Workers:            workers,
		SeqSimSPerWallS:    seqRate,
		ShardSimSPerWallS:  shdRate,
		Speedup:            shdRate / seqRate,
		SeqEventsPerSimS:   seqEv,
		ShardEventsPerSimS: shdEv,
		EventReduction:     seqEv / shdEv,
		SeqReplies:         seq.Replies,
		ShardReplies:       shd.Replies,
		Delivery:           shd.DeliveryRatio(),
		Crossings:          shd.W.Shards().Crossings(),
		Windows:            shd.W.Shards().Windows(),
		MultiBusyWindows:   multiBusy,
		Bound2W:            float64(events) / float64(span2),
	}
	return pt
}

// E18Cells exposes the E18 sweep to the bench writer and the event
// gate, so all three agree on the cell list.
func E18Cells() [][3]int { return e18Cells }

// e18Cells is the sweep E18, the bench writer and the event gate all
// share: the N=200 world across widening channel counts (the
// near-linear-in-channels claim), plus the N=500 and N=1000 worlds at
// their default channel widths (the ≥1 sim-s/wall-s gate at N=1000).
var e18Cells = [][3]int{
	{200, 8, 4},
	{200, 25, 4},
	{200, 50, 4},
	{200, 100, 4},
	{500, 50, 4},
	{1000, 40, 4},
}

// E18 measures the sharded parallel engine (DESIGN.md §3g) against the
// single-loop reference. Both engines route Ethernet frames by
// destination MAC, so they fire the same events (the reduction column
// reads 1.0x; deterministic, gated) and any speedup is parallelism
// alone: on multi-core hosts the windows execute shards concurrently
// (the workers knob; wall-clock only), against the cost of the
// conservative windows themselves. The last two columns bound that
// speedup from the event schedule alone (deterministic, gated): how
// many timed windows had two or more busy shards, and bound_2w, the
// speedup two workers could reach if every event cost the same and
// coordination were free. Delivery is identical on both engines by the
// construction-order seed argument in world.NewLarge — the table marks
// any divergence loudly, and the event gate pins it.
func E18(w io.Writer) *Result {
	r := newResult("E18")
	t := newTable(w, "E18", "same seeded worlds on both engines, 3 simulated minutes per cell")
	t.row("stations", "channels", "workers", "sim-s/wall-s seq", "sim-s/wall-s shard", "speedup", "ev/sim-s seq", "ev/sim-s shard", "reduction", "delivered", "crossings", "multi-busy", "bound 2w")

	for _, cell := range e18Cells {
		pt := ParallelRun(cell[0], cell[1], cell[2])
		key := fmt.Sprintf("_n%d_c%d", pt.Stations, pt.Channels)
		r.set("speedup"+key, pt.Speedup)
		r.set("sim_s_per_wall_s"+key, pt.ShardSimSPerWallS)
		r.set("sim_s_per_wall_s_seq"+key, pt.SeqSimSPerWallS)
		r.set("events_per_sim_s"+key, pt.ShardEventsPerSimS)
		r.set("events_per_sim_s_seq"+key, pt.SeqEventsPerSimS)
		r.set("event_reduction"+key, pt.EventReduction)
		r.set("delivery"+key, pt.Delivery)
		r.set("crossings"+key, float64(pt.Crossings))
		r.set("windows"+key, float64(pt.Windows))
		r.set("multi_busy_windows"+key, float64(pt.MultiBusyWindows))
		r.set("bound_2w"+key, pt.Bound2W)
		mark := ""
		if pt.ShardReplies != pt.SeqReplies || pt.ShardEventsPerSimS != pt.SeqEventsPerSimS {
			mark = " ENGINES-DIVERGE" // equivalence broken: make it loud
		}
		t.row(pt.Stations, pt.Channels, pt.Workers,
			fmt.Sprintf("%.0f", pt.SeqSimSPerWallS),
			fmt.Sprintf("%.0f", pt.ShardSimSPerWallS),
			fmt.Sprintf("%.2fx", pt.Speedup),
			fmt.Sprintf("%.1f", pt.SeqEventsPerSimS),
			fmt.Sprintf("%.1f", pt.ShardEventsPerSimS),
			fmt.Sprintf("%.1fx", pt.EventReduction),
			fmt.Sprintf("%.0f%%%s", pt.Delivery*100, mark),
			pt.Crossings,
			pt.MultiBusyWindows,
			fmt.Sprintf("%.3fx", pt.Bound2W))
	}
	t.flush()
	fmt.Fprintln(w, "   (delivery and event counts are identical on both engines — both route")
	fmt.Fprintln(w, "    Ethernet frames by MAC, and sharding moves events between schedulers,")
	fmt.Fprintln(w, "    not physics; the speedup column is parallelism alone, net of the")
	fmt.Fprintln(w, "    window synchronization cost; bound 2w is the most two workers could")
	fmt.Fprintln(w, "    reach over the timed windows at equal cost per event and free")
	fmt.Fprintln(w, "    coordination)")
	return r
}
