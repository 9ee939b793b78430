// The CI event-count regression gate. Scheduler event counts are pure
// functions of the seed and the code — the virtual clock makes them
// bit-deterministic across machines — so unlike the ns/op numbers in
// BENCH_simcore.json they can be held to exact equality. Any change
// that fires one extra event per ping or per CSMA transmission attempt
// shows up here as a hard CI failure, with the committed JSON as the
// baseline; regenerate it with TestWriteSimCoreBench when the change
// is intentional and explain the delta in the PR.
package packetradio

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"packetradio/internal/experiments"
	"packetradio/internal/world"
)

func TestEventGate(t *testing.T) {
	raw, err := os.ReadFile("BENCH_simcore.json")
	if err != nil {
		t.Fatalf("no committed baseline: %v", err)
	}
	var committed struct {
		SeattlePingEventsPerOp float64 `json:"seattle_ping_events_per_op"`
		E14Scaling             map[string]struct {
			EventsPerSimS float64 `json:"events_per_sim_s"`
			DeliveryRatio float64 `json:"delivery_ratio"`
		} `json:"e14_scaling"`
		E16MAC map[string]map[string]struct {
			Replies       float64 `json:"replies"`
			EventsPerSimS float64 `json:"events_per_sim_s"`
			Collisions    float64 `json:"collisions"`
		} `json:"e16_mac"`
		E17Transfer map[string]struct {
			Seconds   float64 `json:"seconds"`
			Delivered float64 `json:"delivered"`
			PktsOut   float64 `json:"pkts_out"`
			Resent    float64 `json:"resent"`
		} `json:"e17_transfer"`
		TracingOverhead struct {
			Untraced float64 `json:"events_per_sim_s_untraced_n200"`
			Traced   float64 `json:"events_per_sim_s_traced_n200"`
		} `json:"tracing_overhead"`
		E18Parallel map[string]struct {
			EventsPerSimS    float64 `json:"events_per_sim_s"`
			EventsPerSimSSeq float64 `json:"events_per_sim_s_seq"`
			Replies          float64 `json:"replies"`
			DeliveryRatio    float64 `json:"delivery_ratio"`
			Crossings        float64 `json:"crossings"`
			Windows          float64 `json:"windows"`
			MultiBusyWindows float64 `json:"multi_busy_windows"`
			Bound2W          float64 `json:"bound_2w"`
		} `json:"e18_parallel"`
	}
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}

	events := seattlePing(seattlePingIters)
	if events != committed.SeattlePingEventsPerOp {
		t.Errorf("seattle_ping_events_per_op = %v, committed %v — the datapath's event count changed; "+
			"regenerate BENCH_simcore.json if intentional", events, committed.SeattlePingEventsPerOp)
	}

	for _, n := range []int{10, 200} {
		key := map[int]string{10: "n10", 200: "n200"}[n]
		want, ok := committed.E14Scaling[key]
		if !ok {
			t.Fatalf("baseline has no e14_scaling.%s", key)
		}
		pt := experiments.ScaleRun(n)
		if pt.EventsPerSimS != want.EventsPerSimS {
			t.Errorf("E14 %s events_per_sim_s = %v, committed %v", key, pt.EventsPerSimS, want.EventsPerSimS)
		}
		if pt.Delivery != want.DeliveryRatio {
			t.Errorf("E14 %s delivery_ratio = %v, committed %v", key, pt.Delivery, want.DeliveryRatio)
		}
	}

	// Tracing-overhead cell: attaching the packet tracer must not add,
	// remove, or reorder a single event. Both numbers gate exactly and
	// the pair must be equal — a tracer hook that schedules anything of
	// its own breaks the zero-perturbation contract here.
	if committed.TracingOverhead.Traced != committed.TracingOverhead.Untraced {
		t.Errorf("committed baseline itself shows tracing overhead: traced %v vs untraced %v events/sim-s",
			committed.TracingOverhead.Traced, committed.TracingOverhead.Untraced)
	}
	if got := tracingEventsPerSimS(200, false); got != committed.TracingOverhead.Untraced {
		t.Errorf("untraced events/sim-s = %v, committed %v", got, committed.TracingOverhead.Untraced)
	}
	if got := tracingEventsPerSimS(200, true); got != committed.TracingOverhead.Traced {
		t.Errorf("traced events/sim-s = %v, committed %v — tracer hooks changed the event schedule",
			got, committed.TracingOverhead.Traced)
	}

	// E16 rows: the DAMA poll schedule is RNG-free, so its event rate
	// and delivery *counts* gate exactly, alongside the CSMA control
	// cells of the same worlds. N=100 is the acceptance point (the
	// knee must stay lifted); N=10 pins the below-knee behaviour.
	for _, n := range []int{10, 100} {
		key := map[int]string{10: "n10", 100: "n100"}[n]
		want, ok := committed.E16MAC[key]
		if !ok {
			t.Fatalf("baseline has no e16_mac.%s", key)
		}
		for mac, mode := range map[string]world.MACMode{"csma": world.MACCSMA, "dama": world.MACDAMA} {
			cell, ok := want[mac]
			if !ok {
				t.Fatalf("baseline has no e16_mac.%s.%s", key, mac)
			}
			pt := experiments.MACRun(n, mode)
			if float64(pt.Replies) != cell.Replies {
				t.Errorf("E16 %s/%s replies = %d, committed %v", key, mac, pt.Replies, cell.Replies)
			}
			if pt.EventsPerSimS != cell.EventsPerSimS {
				t.Errorf("E16 %s/%s events_per_sim_s = %v, committed %v", key, mac, pt.EventsPerSimS, cell.EventsPerSimS)
			}
			if float64(pt.Collisions) != cell.Collisions {
				t.Errorf("E16 %s/%s collisions = %d, committed %v", key, mac, pt.Collisions, cell.Collisions)
			}
		}
	}
	// E17 cells: one 2 KB transfer per transport x MTU is RNG-light
	// enough that completion time, packet counts and retransmissions
	// all gate exactly. A lossless channel must stay retransmit-free —
	// any resent packet here is a transport regression (spurious RTO or
	// a NAK fired into the sender's own train), not noise.
	for _, mtu := range []int{256, 576} {
		for _, tr := range []string{"tcp", "rdm"} {
			key := fmt.Sprintf("%s_mtu%d", tr, mtu)
			want, ok := committed.E17Transfer[key]
			if !ok {
				t.Fatalf("baseline has no e17_transfer.%s", key)
			}
			pt := experiments.TransferRun(tr, mtu)
			if pt.Seconds != want.Seconds {
				t.Errorf("E17 %s seconds = %v, committed %v", key, pt.Seconds, want.Seconds)
			}
			if float64(pt.Delivered) != want.Delivered {
				t.Errorf("E17 %s delivered = %d, committed %v", key, pt.Delivered, want.Delivered)
			}
			if float64(pt.PktsOut) != want.PktsOut {
				t.Errorf("E17 %s pkts_out = %d, committed %v", key, pt.PktsOut, want.PktsOut)
			}
			if float64(pt.Resent) != want.Resent {
				t.Errorf("E17 %s resent = %d, committed %v", key, pt.Resent, want.Resent)
			}
		}
	}
	// E18 cells: the sharded engine runs both engines per cell and every
	// non-wall field is deterministic — event rates, crossings, window
	// counts, the two-worker bound and delivery all gate exactly. The
	// replies and event-count checks hold the sharded engine to the
	// sequential engine's run (the engines must agree run for run, not
	// just match a committed number): both route Ethernet frames by
	// destination MAC, so partitioning a world moves events between
	// schedulers without adding or removing one.
	for _, cell := range experiments.E18Cells() {
		key := fmt.Sprintf("n%d_c%d", cell[0], cell[1])
		want, ok := committed.E18Parallel[key]
		if !ok {
			t.Fatalf("baseline has no e18_parallel.%s", key)
		}
		pt := experiments.ParallelRun(cell[0], cell[1], cell[2])
		if pt.ShardReplies != pt.SeqReplies {
			t.Errorf("E18 %s: engines disagree — sequential %d replies, sharded %d",
				key, pt.SeqReplies, pt.ShardReplies)
		}
		if pt.SeqEventsPerSimS != pt.ShardEventsPerSimS {
			t.Errorf("E18 %s: engines disagree — sequential %v events/sim-s, sharded %v",
				key, pt.SeqEventsPerSimS, pt.ShardEventsPerSimS)
		}
		if float64(pt.ShardReplies) != want.Replies {
			t.Errorf("E18 %s replies = %d, committed %v", key, pt.ShardReplies, want.Replies)
		}
		if pt.ShardEventsPerSimS != want.EventsPerSimS {
			t.Errorf("E18 %s events_per_sim_s = %v, committed %v", key, pt.ShardEventsPerSimS, want.EventsPerSimS)
		}
		if pt.SeqEventsPerSimS != want.EventsPerSimSSeq {
			t.Errorf("E18 %s events_per_sim_s_seq = %v, committed %v", key, pt.SeqEventsPerSimS, want.EventsPerSimSSeq)
		}
		if pt.Delivery != want.DeliveryRatio {
			t.Errorf("E18 %s delivery_ratio = %v, committed %v", key, pt.Delivery, want.DeliveryRatio)
		}
		if float64(pt.Crossings) != want.Crossings {
			t.Errorf("E18 %s crossings = %v, committed %v", key, pt.Crossings, want.Crossings)
		}
		if float64(pt.Windows) != want.Windows {
			t.Errorf("E18 %s windows = %v, committed %v", key, pt.Windows, want.Windows)
		}
		if float64(pt.MultiBusyWindows) != want.MultiBusyWindows {
			t.Errorf("E18 %s multi_busy_windows = %v, committed %v", key, pt.MultiBusyWindows, want.MultiBusyWindows)
		}
		if pt.Bound2W != want.Bound2W {
			t.Errorf("E18 %s bound_2w = %v, committed %v", key, pt.Bound2W, want.Bound2W)
		}
	}

	if rdm576 := committed.E17Transfer["rdm_mtu576"]; rdm576.Resent != 0 {
		t.Errorf("committed baseline itself carries %v retransmissions on a lossless channel", rdm576.Resent)
	}

	n100 := committed.E16MAC["n100"]
	if n100["dama"].Replies <= n100["csma"].Replies {
		t.Errorf("committed baseline itself violates the acceptance bar: DAMA %v replies <= CSMA %v at N=100",
			n100["dama"].Replies, n100["csma"].Replies)
	}
}
