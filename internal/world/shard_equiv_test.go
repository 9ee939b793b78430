package world

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"packetradio/internal/obs"
	"packetradio/internal/radio"
	"packetradio/internal/sim"
)

// largeRun builds a multi-channel NewLarge on the given engine and runs
// the standard probe schedule: 1-minute pings, 3 simulated minutes.
func largeRun(t *testing.T, workers, stations, channels int) *Large {
	t.Helper()
	lw := NewLarge(LargeConfig{
		Seed:         7,
		Stations:     stations,
		Channels:     channels,
		PingInterval: time.Minute,
		Workers:      workers,
	})
	lw.W.Run(3 * time.Minute)
	return lw
}

// TestShardedMatchesSequential is the engine-equivalence regression:
// the same seed on the single-loop and sharded engines must produce the
// same traffic — equal probes sent, equal replies, equal events fired,
// and the identical multiset of RTTs. The construction-order derive
// trick (NewLarge doc) is what makes this exact rather than
// statistical.
func TestShardedMatchesSequential(t *testing.T) {
	seq := largeRun(t, 0, 60, 6)
	shd := largeRun(t, 1, 60, 6)

	if seq.Sent != shd.Sent || seq.Replies != shd.Replies {
		t.Fatalf("engines disagree: sequential sent=%d replies=%d, sharded sent=%d replies=%d",
			seq.Sent, seq.Replies, shd.Sent, shd.Replies)
	}
	if seq.W.EventsFired() != shd.W.EventsFired() {
		t.Fatalf("engines fired different event counts: sequential %d, sharded %d",
			seq.W.EventsFired(), shd.W.EventsFired())
	}
	if seq.Replies == 0 {
		t.Fatal("no replies delivered — the scenario is not exercising the network")
	}
	a := append([]time.Duration(nil), seq.RTTs...)
	b := append([]time.Duration(nil), shd.RTTs...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	if len(a) != len(b) {
		t.Fatalf("RTT count differs: sequential %d, sharded %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RTT[%d] differs: sequential %v, sharded %v", i, a[i], b[i])
		}
	}
	// Channel-access accounting must agree too: both engines lose the
	// same probes to the same CSMA fates, station by station.
	for i := range seq.Stations {
		sa := seq.Stations[i].Radio("pr0").RF.Stats
		sb := shd.Stations[i].Radio("pr0").RF.Stats
		if sa != sb {
			t.Fatalf("station %d TxStats differ:\nsequential %+v\nsharded    %+v", i, sa, sb)
		}
	}
}

// TestEnginesAgreeOnScaleCells runs six scale worlds on both engines —
// the 200-station world across widening channel counts, the
// 500-station world on 50 channels and the 1000-station world on 40 —
// with seed 1, a 30 s warm-up, then 3 timed minutes. The engines must
// deliver the same replies and fire the same events in the timed
// window: both route Ethernet frames by MAC, so a partition moves
// events between schedulers but never adds or drops one.
func TestEnginesAgreeOnScaleCells(t *testing.T) {
	cells := []struct{ stations, channels int }{
		{200, 8}, {200, 25}, {200, 50}, {200, 100}, {500, 50}, {1000, 40},
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("n%d_c%d", c.stations, c.channels), func(t *testing.T) {
			run := func(workers int) (replies, events uint64) {
				lw := NewLarge(LargeConfig{
					Seed: 1, Stations: c.stations, Channels: c.channels,
					PingInterval: time.Minute, Workers: workers,
				})
				lw.W.Run(30 * time.Second)
				before := lw.W.EventsFired()
				lw.W.Run(3 * time.Minute)
				return lw.Replies, lw.W.EventsFired() - before
			}
			seqReplies, seqEvents := run(0)
			shdReplies, shdEvents := run(1)
			if seqReplies == 0 {
				t.Fatal("no replies delivered")
			}
			if shdReplies != seqReplies || shdEvents != seqEvents {
				t.Fatalf("engines disagree: sequential %d replies, %d timed events; sharded %d replies, %d timed events",
					seqReplies, seqEvents, shdReplies, shdEvents)
			}
		})
	}
}

// TestShardedWorkerInvariance pins that LargeConfig.Workers only
// selects the engine: a sharded world built at 1 and at 4 workers is
// bit-identical — same counts AND the same arrival order, so the
// unsorted RTT sequence matches element for element, as do the event
// totals and the per-shard counters. bench/ builds its sharded worlds
// at 2, the tests at 1.
func TestShardedWorkerInvariance(t *testing.T) {
	one := largeRun(t, 1, 100, 8)
	four := largeRun(t, 4, 100, 8)

	if one.Sent != four.Sent || one.Replies != four.Replies {
		t.Fatalf("worker count changed traffic: w1 sent=%d replies=%d, w4 sent=%d replies=%d",
			one.Sent, one.Replies, four.Sent, four.Replies)
	}
	if one.Replies == 0 {
		t.Fatal("no replies delivered")
	}
	if len(one.RTTs) != len(four.RTTs) {
		t.Fatalf("RTT count differs: w1 %d, w4 %d", len(one.RTTs), len(four.RTTs))
	}
	for i := range one.RTTs {
		if one.RTTs[i] != four.RTTs[i] {
			t.Fatalf("RTT order differs at %d: w1 %v, w4 %v", i, one.RTTs[i], four.RTTs[i])
		}
	}
	if one.W.EventsFired() != four.W.EventsFired() {
		t.Fatalf("event totals differ: w1 %d, w4 %d", one.W.EventsFired(), four.W.EventsFired())
	}
	sa, sb := one.W.ShardStats(), four.W.ShardStats()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("shard %q stats differ across worker counts: %+v vs %+v", sa[i].Name, sa[i], sb[i])
		}
	}
}

// TestShardedLedgerMatchesSequential pins the ping fate ledger's
// engine independence: one seam recorder fed by every shard yields
// the same fate table — and the same rendered report — on both
// engines.
func TestShardedLedgerMatchesSequential(t *testing.T) {
	run := func(workers int) *obs.PingLedger {
		lw := NewLarge(LargeConfig{
			Seed:         7,
			Stations:     60,
			Channels:     6,
			PingInterval: time.Minute,
			Workers:      workers,
		})
		led := lw.W.AttachPingLedger()
		lw.W.Run(3 * time.Minute)
		return led
	}
	ref := run(0)
	if ref.Sent() == 0 || ref.Delivered() == 0 {
		t.Fatalf("ledger saw no traffic: sent=%d delivered=%d", ref.Sent(), ref.Delivered())
	}
	var refReport strings.Builder
	ref.WriteFates(&refReport)
	led := run(1)
	if led.Sent() != ref.Sent() || led.Delivered() != ref.Delivered() {
		t.Fatalf("sharded sent/delivered %d/%d differ from sequential %d/%d",
			led.Sent(), led.Delivered(), ref.Sent(), ref.Delivered())
	}
	if !reflect.DeepEqual(led.Fates(), ref.Fates()) {
		t.Fatalf("fate table differs:\nsequential %v\nsharded    %v", ref.Fates(), led.Fates())
	}
	var report strings.Builder
	led.WriteFates(&report)
	if report.String() != refReport.String() {
		t.Fatalf("fate report differs:\n--- sequential\n%s--- sharded\n%s", refReport.String(), report.String())
	}
}

// TestRetuneMidTransmissionAcrossEngines retunes a station to another
// channel while one of its frames is on the air — the nastiest spot
// for a shard boundary, since the channel's delivery events and the
// station's MAC state must agree in virtual time on either engine.
// Airtime accounting has to agree exactly across engines, and differ
// from an undisturbed control run (proving the retune actually landed
// mid-flight).
func TestRetuneMidTransmissionAcrossEngines(t *testing.T) {
	const stations, channels = 12, 1

	// Probe run: find when station 0's first frame keys up and how
	// long it airs, to aim the retune at the middle of that frame.
	var txStart sim.Time
	var frameLen int
	probe := NewLarge(LargeConfig{
		Seed: 11, Stations: stations, Channels: channels, PingInterval: time.Minute,
	})
	rf0 := probe.Stations[0].Radio("pr0").RF
	rf0.TraceMAC = func(event string, frame []byte, _ uint64) {
		if event == "tx-start" && frameLen == 0 {
			txStart = probe.Stations[0].Sched().Now()
			frameLen = len(frame)
		}
	}
	probe.W.Run(3 * time.Minute)
	if frameLen == 0 {
		t.Fatal("station 0 never transmitted in the probe run")
	}
	mid := txStart.Add(probe.Channels[0].AirTime(frameLen) / 2)

	type result struct {
		tx      radio.TxStats
		airtime time.Duration
	}
	run := func(workers int, retune bool) result {
		lw := NewLarge(LargeConfig{
			Seed: 11, Stations: stations, Channels: channels, PingInterval: time.Minute,
			Workers: workers,
		})
		st := lw.Stations[0]
		rf := st.Radio("pr0").RF
		if retune {
			extra := radio.NewChannel(st.Sched(), lw.Cfg.BitRate)
			st.Sched().At(mid, func() { rf.Retune(extra) })
		}
		lw.W.Run(3 * time.Minute)
		return result{tx: rf.Stats, airtime: lw.Channels[0].Stats.Airtime}
	}

	seq := run(0, true)
	control := run(0, false)
	if seq == control {
		t.Fatalf("retune at %v changed nothing — it did not land mid-transmission", mid)
	}
	if shd := run(1, true); shd != seq {
		t.Fatalf("sharded engine diverges after mid-transmission retune:\nsequential %+v\nsharded    %+v", seq, shd)
	}
}

// TestShardedRerunDeterminism pins that a sharded run is a pure
// function of the seed: build twice, compare exactly — the same counts
// and the same arrival order, so the unsorted RTT sequence matches
// element for element, as do the event totals and per-shard counters.
func TestShardedRerunDeterminism(t *testing.T) {
	a := largeRun(t, 1, 50, 5)
	b := largeRun(t, 1, 50, 5)
	if a.Sent != b.Sent || a.Replies != b.Replies || len(a.RTTs) != len(b.RTTs) {
		t.Fatalf("reruns differ: %d/%d/%d vs %d/%d/%d",
			a.Sent, a.Replies, len(a.RTTs), b.Sent, b.Replies, len(b.RTTs))
	}
	for i := range a.RTTs {
		if a.RTTs[i] != b.RTTs[i] {
			t.Fatalf("rerun RTT[%d] differs: %v vs %v", i, a.RTTs[i], b.RTTs[i])
		}
	}
	if a.W.Shards().Crossings() != b.W.Shards().Crossings() {
		t.Fatalf("crossings differ: %d vs %d", a.W.Shards().Crossings(), b.W.Shards().Crossings())
	}
	if a.W.EventsFired() != b.W.EventsFired() {
		t.Fatalf("event totals differ: %d vs %d", a.W.EventsFired(), b.W.EventsFired())
	}
	sa, sb := a.W.ShardStats(), b.W.ShardStats()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("shard %q stats differ across reruns: %+v vs %+v", sa[i].Name, sa[i], sb[i])
		}
	}
}

// TestShardedIdleChannelNoStall is the starvation case: with more
// channels than stations some shards hold no events at all, and an idle
// shard must contribute no horizon bound — the busy channels advance,
// traffic flows, and the run terminates.
func TestShardedIdleChannelNoStall(t *testing.T) {
	lw := NewLarge(LargeConfig{
		Seed:         3,
		Stations:     4,
		Channels:     8, // channels 5..8 have no stations: idle shards
		PingInterval: time.Minute,
		Workers:      2,
	})
	done := make(chan struct{})
	go func() {
		lw.W.Run(3 * time.Minute)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sharded run stalled — an idle shard is holding the horizon back")
	}
	if lw.Replies == 0 {
		t.Fatalf("no replies with idle channels present (sent=%d)", lw.Sent)
	}
}
