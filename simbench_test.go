// Simulator-core benchmarks: the deterministic cost of stepping the
// Figure-1 chain and the generated worlds. simCoreReport builds
// BENCH_simcore.json, whose every field is a pure function of the seed
// and the code (event counts, deliveries, allocations):
// TestWriteSimCoreBench checks what must hold within it, and
// TestEventGate holds the committed file to it exactly. Wall time
// belongs to prbench in bench/, which measures it with spreads.
package packetradio

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"packetradio/internal/experiments"
	"packetradio/internal/ip"
	"packetradio/internal/pool"
	"packetradio/internal/sim"
	"packetradio/internal/world"
)

// macCell measures one E16 cell (N stations, one channel, one MAC) for
// the bench JSON. Every field is deterministic.
func macCell(n int, mac world.MACMode) map[string]float64 {
	pt := experiments.MACRun(n, mac)
	return map[string]float64{
		"sent":             float64(pt.Sent),
		"replies":          float64(pt.Replies),
		"delivery_ratio":   pt.Delivery,
		"median_rtt_ms":    float64(pt.MedianRTT) / float64(time.Millisecond),
		"events_per_sim_s": pt.EventsPerSimS,
		"collisions":       float64(pt.Collisions),
		"deferrals":        float64(pt.Deferrals),
		"polls":            float64(pt.PollsSent),
		"poll_timeouts":    float64(pt.PollTimeouts),
		"control_share":    pt.ControlShare,
	}
}

// seattlePingIters is the iteration count behind the events/op numbers
// in BENCH_simcore.json. The quotient depends on it (ARP refresh and
// ICMP id sequencing amortize differently over different windows), so
// changing it moves the committed baseline.
const seattlePingIters = 20000

// warmSeattle builds the one-PC Figure-1 world on the given MAC, with
// the ping ledger and the span tracer attached when traced, and warms
// the PC's ARP entry for the gateway with one small ping. It returns a
// function that sends one warm 64-byte ping through the full chain and
// runs the world for a simulated minute, reporting whether the reply
// came back.
func warmSeattle(mac world.MACMode, traced bool) (s *world.Seattle, ping func() bool) {
	s = world.NewSeattle(world.SeattleConfig{Seed: 1, NumPCs: 1, MAC: mac})
	if traced {
		s.W.AttachPingLedger()
		s.W.AttachTracer()
	}
	ok := false
	reply := func(uint16, time.Duration, ip.Addr) { ok = true }
	s.PCs[0].Stack.Ping(world.GatewayIP, 8, reply)
	s.W.Run(5 * time.Minute)
	if !ok {
		panic("warmup ping failed")
	}
	return s, func() bool {
		ok = false
		s.PCs[0].Stack.Ping(world.GatewayIP, 64, reply)
		s.W.Run(time.Minute)
		return ok
	}
}

// seattlePing returns the scheduler events one warm ping fires through
// the full chain, averaged over iters pings.
func seattlePing(iters int) (eventsPerOp float64) {
	s, ping := warmSeattle(world.MACCSMA, false)
	firedBefore := s.W.Sched.Fired()
	for i := 0; i < iters; i++ {
		if !ping() {
			panic("ping lost")
		}
	}
	return float64(s.W.Sched.Fired()-firedBefore) / float64(iters)
}

// maxSeattlePingAllocs bounds the heap objects one warm ping allocates
// end to end. The datapath copies bytes only where the model keeps them
// across virtual time (DESIGN.md §3b, "Copy once per hop"), into
// buffers from their owners' free lists, and the IP layer parses and
// builds datagrams in scratch each stack owns, so a warm ping allocates
// nothing; the one object allowed is the ARP refresh, spread over the
// pings between refreshes.
const maxSeattlePingAllocs = 1

// TestSeattlePingAllocs is the allocation gate on the datapath: a
// warm ping that allocates more than maxSeattlePingAllocs objects has
// grown a per-hop copy or a per-frame closure back.
func TestSeattlePingAllocs(t *testing.T) {
	skipInPoolcheck(t)
	if allocs := pingAllocs(t, world.MACCSMA, false, 1000); allocs > maxSeattlePingAllocs {
		t.Fatalf("a warm 64-byte ping allocates %.0f objects, want <= %d", allocs, maxSeattlePingAllocs)
	}
}

// skipInPoolcheck skips an allocation gate in a poolcheck build, whose
// free lists allocate to check every return (internal/pool): the gates
// hold the production build, and the poolcheck build checks ownership.
func skipInPoolcheck(t *testing.T) {
	t.Helper()
	if pool.Checking {
		t.Skip("poolcheck build: the free-list checks allocate")
	}
}

// pingAllocs reports the heap objects one warm Seattle ping allocates
// on the given MAC, averaged over runs pings, with the ping ledger and
// the span tracer attached when traced.
func pingAllocs(t *testing.T, mac world.MACMode, traced bool, runs int) float64 {
	_, ping := warmSeattle(mac, traced)
	return testing.AllocsPerRun(runs, func() {
		if !ping() {
			t.Fatal("ping lost")
		}
	})
}

// maxTracedPingExtraAllocs bounds what the ping ledger and the span
// tracer add to a warm ping's allocations. The seam hooks decode into
// storage each lane owns, a journey reuses a closed one's storage, and
// the folds index arrays by stage and crossing point, so what is left
// is the breakdown's growing sample slices, amortized over the pings.
const maxTracedPingExtraAllocs = 2

// maxDAMAPingAllocs bounds what an untraced warm ping allocates on a
// polled channel, where the minute it runs also carries the master's
// polls and the members' responses: the controller encodes them in its
// own scratch and arms timers built once per member.
const maxDAMAPingAllocs = 10

// TestTracedPingAllocs is the allocation gate on the obs taps: with
// the ledger and the tracer attached, a warm ping allocates at most
// maxTracedPingExtraAllocs objects more than an untraced one, on a
// CSMA channel and on a polled one, where the minute a ping runs also
// carries the master's polls and every key-up names the master. The
// untraced polled ping itself allocates at most maxDAMAPingAllocs.
func TestTracedPingAllocs(t *testing.T) {
	skipInPoolcheck(t)
	for _, tc := range []struct {
		mac  world.MACMode
		runs int
	}{{world.MACCSMA, 1000}, {world.MACDAMA, 200}} {
		plain, traced := pingAllocs(t, tc.mac, false, tc.runs), pingAllocs(t, tc.mac, true, tc.runs)
		t.Logf("%v: a warm ping allocates %.0f objects, %.0f traced", tc.mac, plain, traced)
		if tc.mac == world.MACDAMA && plain > maxDAMAPingAllocs {
			t.Errorf("%v: a warm ping allocates %.0f objects, want at most %d", tc.mac, plain, maxDAMAPingAllocs)
		}
		if traced > plain+maxTracedPingExtraAllocs {
			t.Errorf("%v: a warm traced ping allocates %.0f objects, an untraced one %.0f: want at most %d more",
				tc.mac, traced, plain, maxTracedPingExtraAllocs)
		}
	}
}

func schedulerAllocsPerOp() float64 {
	s := sim.NewScheduler(1)
	s.After(time.Microsecond, func() {})
	s.Step()
	return testing.AllocsPerRun(1000, func() {
		s.After(time.Microsecond, func() {})
		s.Step()
	})
}

// simCoreReport builds BENCH_simcore.json's report once per test
// binary, so TestEventGate and TestWriteSimCoreBench share one run of
// every world behind it.
var simCoreReport = sync.OnceValues(buildSimCoreReport)

// TestWriteSimCoreBench checks what must hold within the report
// BENCH_simcore.json is written from, whatever the committed file
// says: the hot scheduler loop does not allocate, DAMA lifts the CSMA
// knee with a collision-free channel, a lossless RDM transfer resends
// nothing, and the tracer leaves the event schedule alone. (The two
// engines' agreement is checked in internal/world's shard-equivalence
// suite.) The event savings of the burst datapath
// and carrier-edge CSMA over the seed's per-byte and per-slot chains
// are asserted against those chains' test oracles in internal/serial
// and internal/radio.
func TestWriteSimCoreBench(t *testing.T) {
	_, faults := simCoreReport()
	for _, f := range faults {
		t.Error(f)
	}
}

// buildSimCoreReport builds BENCH_simcore.json's report, and one fault
// line for each check TestWriteSimCoreBench names that it fails.
func buildSimCoreReport() (report map[string]any, faults []string) {
	fault := func(format string, args ...any) {
		faults = append(faults, fmt.Sprintf(format, args...))
	}
	pingEvents := seattlePing(seattlePingIters)
	allocs := schedulerAllocsPerOp()
	if allocs != 0 {
		fault("scheduler After+Step allocates %.2f objects/op, want 0", allocs)
	}

	scaling := map[string]any{}
	var untracedRate float64 // the untraced half of the tracing pair below
	for _, n := range []int{10, 50, 100, 200} {
		pt := experiments.ScaleRun(n, nil)
		scaling[fmt.Sprintf("n%d", n)] = map[string]float64{
			"events_per_sim_s": pt.EventsPerSimS,
			"delivery_ratio":   pt.Delivery,
		}
		if n == 200 {
			untracedRate = pt.EventsPerSimS
		}
	}

	// E16: the DAMA-vs-CSMA single-channel sweep. The acceptance bar
	// for the MAC subsystem is delivery strictly ahead at N=100, and a
	// collision-free channel at every saturation level.
	mac := map[string]any{}
	for _, n := range []int{10, 50, 100, 200} {
		c := macCell(n, world.MACCSMA)
		d := macCell(n, world.MACDAMA)
		if n == 100 && d["replies"] <= c["replies"] {
			fault("N=100: DAMA delivered %.0f replies vs CSMA %.0f — the knee did not lift",
				d["replies"], c["replies"])
		}
		if d["collisions"] != 0 {
			fault("N=%d: DAMA channel recorded %.0f collision pairs, want 0", n, d["collisions"])
		}
		mac[fmt.Sprintf("n%d", n)] = map[string]any{"csma": c, "dama": d}
	}

	// E17: the SOCK_RDM-vs-TCP transfer grid. A lossless channel must
	// stay retransmit-free: any resent packet is a transport regression
	// (a spurious RTO or a NAK fired into the sender's own train), not
	// noise.
	xfer := map[string]any{}
	for _, mtu := range []int{256, 576} {
		for _, tr := range []string{"tcp", "rdm"} {
			pt := experiments.TransferRun(tr, mtu)
			key := fmt.Sprintf("%s_mtu%d", tr, mtu)
			if key == "rdm_mtu576" && pt.Resent != 0 {
				fault("E17 %s: %d retransmissions on a lossless channel, want 0", key, pt.Resent)
			}
			xfer[key] = map[string]float64{
				"seconds":     pt.Seconds,
				"goodput_bps": pt.GoodputBPS,
				"delivered":   float64(pt.Delivered),
				"pkts_out":    float64(pt.PktsOut),
				"resent":      float64(pt.Resent),
			}
		}
	}

	// Tracing overhead at the widest E14 point: attaching the packet
	// tracer must not add, remove or reorder a single event — a tracer
	// hook that schedules anything of its own fails here. The tracer's
	// hooks ride existing events, so both rates must be identical.
	tracedRate := experiments.ScaleRun(200, func(lw *world.Large) { lw.W.AttachTracer() }).EventsPerSimS
	if tracedRate != untracedRate {
		fault("tracing changed the event schedule: %.3f traced vs %.3f untraced events/sim-s",
			tracedRate, untracedRate)
	}

	report = map[string]any{
		"description":                "simulator-core benchmarks: every value is deterministic (event counts, deliveries, allocations); wall time is measured by prbench in bench/",
		"seattle_ping_events_per_op": pingEvents,
		"scheduler_allocs_per_op":    allocs,
		"tracing_overhead": map[string]float64{
			"events_per_sim_s_untraced_n200": untracedRate,
			"events_per_sim_s_traced_n200":   tracedRate,
		},
		"e14_scaling":  scaling,
		"e16_mac":      mac,
		"e17_transfer": xfer,
	}
	return report, faults
}

// TestTracingDisabledAddsNoAllocs pins the packet tracer's zero-cost
// contract: a world that never calls AttachTracer installs none of
// the trace hooks (MAC, ARP, stack, KISS, channel), so the hot loop
// still runs at exactly zero allocations per event. The nil-hook
// checks in the radio and ARP fast paths are the seam's only cost.
func TestTracingDisabledAddsNoAllocs(t *testing.T) {
	s := world.NewSeattle(world.SeattleConfig{Seed: 1, NumPCs: 1})
	if s.W.Tracer() != nil {
		t.Fatal("world built with a tracer already attached")
	}
	port := s.Gateway.Radio("pr0")
	if port.RF.TraceMAC != nil {
		t.Fatal("MAC trace hook installed without AttachTracer")
	}
	if port.Driver.Resolver().Trace != nil {
		t.Fatal("ARP trace hook installed without AttachTracer")
	}
	sched := s.W.Sched
	sched.After(time.Microsecond, func() {})
	sched.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		sched.After(time.Microsecond, func() {})
		sched.Step()
	})
	if allocs != 0 {
		t.Fatalf("After+Step with tracing disabled allocates %.2f objects/op, want 0", allocs)
	}
}

// TestObsDisabledAddsNoAllocs pins DESIGN.md §3e's overhead contract:
// observability is read-side, so a world with a fully built metrics
// registry — but no sampling, no flight recorder, no taps — runs the
// scheduler hot loop (After + Step) at exactly zero allocations per
// event, same as a world with no registry at all. The nil-EventHook
// check in Step is the only cost of the flight-recorder seam.
func TestObsDisabledAddsNoAllocs(t *testing.T) {
	if a := schedulerAllocsPerOp(); a != 0 {
		t.Fatalf("bare scheduler allocates %.2f objects/op, want 0", a)
	}
	s := world.NewSeattle(world.SeattleConfig{Seed: 1, NumPCs: 1})
	if s.W.Registry().Len() == 0 {
		t.Fatal("registry swept no metrics; the disabled-path claim is vacuous")
	}
	if s.W.Sched.EventHook != nil {
		t.Fatal("building the registry installed an event hook")
	}
	sched := s.W.Sched
	sched.After(time.Microsecond, func() {})
	sched.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		sched.After(time.Microsecond, func() {})
		sched.Step()
	})
	if allocs != 0 {
		t.Fatalf("After+Step with a built registry allocates %.2f objects/op, want 0", allocs)
	}
}
