// Package bench is the wall-clock benchmark of the packet-radio
// simulator. It builds each workload's world from a seed, times the
// calls it makes itself (construction, World.Run or the engine's
// RunFor, Stack.Ping), checks the simulation's outputs, and reports
// end-to-end metrics, scaled to a reference machine's speed. A traced
// run adds per-layer numbers: CPU shares from the Go profiler, counts
// from the world's metrics registry, and runtime statistics.
//
// Exact event counts stay gated by TestEventGate against
// BENCH_simcore.json in the root module; this package measures wall
// time, which no gate can hold exactly.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"packetradio/internal/obs"
	"packetradio/internal/world"
)

// Config sets up one run of one workload.
type Config struct {
	Seed int64
	// Seconds sizes the timed window: the simulated work the reference
	// machine covers in this many wall seconds. A tenth as long again
	// goes to timing fresh builds for setup_s.
	Seconds float64
	// Trace re-runs the window's work on a fresh world under the CPU
	// profiler and adds the per-layer metrics.
	Trace bool
}

// Metric is one named measurement.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Digest identifies a run's simulated outcome. Two runs of one commit
// with one seed and window must produce equal digests.
type Digest struct {
	Sent    uint64 `json:"sent"`
	Replies uint64 `json:"replies"`
	RTTHash string `json:"rtt_hash"`
	Events  uint64 `json:"events"`
	Windows uint64 `json:"windows"`
}

func (d Digest) String() string {
	return fmt.Sprintf("sent=%d replies=%d rtt_hash=%s events=%d windows=%d",
		d.Sent, d.Replies, d.RTTHash, d.Events, d.Windows)
}

// Result is one run's outcome.
type Result struct {
	Workload string
	Seed     int64
	Digest   Digest
	Metrics  []Metric // end-to-end metrics, then per-layer ones in a traced run
	// Failures lists the correctness checks the run failed.
	Failures []string
	// Attempted counts the probes or pings the timed window sent.
	// Failed counts those that went wrong for the benchmark: on the
	// closed-loop ping workload every unanswered ping; on the regional
	// worlds a probe lost to a simulated collision is the model's
	// correct output (its share is error_rate), so there only a failed
	// check fails the window's probes.
	Attempted, Failed uint64
}

// Correct reports whether every check passed.
func (r *Result) Correct() bool { return len(r.Failures) == 0 }

// Metric returns the named metric's value.
func (r *Result) Metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

func (r *Result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, Unit: unit})
}

func (r *Result) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// EndToEnd names the metrics every run reports, with their units.
// Both times are scaled to the reference machine's speed (see ref.go).
var EndToEnd = []Metric{
	{Name: "sim_s_per_ref_s", Unit: "sim-s/s"},
	{Name: "setup_s", Unit: "s"},
}

// Run runs workload w once.
func Run(w *Workload, cfg Config) *Result {
	res := &Result{Workload: w.Name, Seed: cfg.Seed}

	// Setup: fresh worlds, each timed from a collected heap, until the
	// builds and their collections have taken a tenth of the window's
	// nominal length. Tiny worlds build many times over.
	var inst instance
	var setups []float64
	budget := time.Duration(cfg.Seconds / 10 * float64(time.Second))
	refBefore := refKernel()
	for start := time.Now(); len(setups) == 0 || time.Since(start) < budget; {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		inst = w.build(cfg.Seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupSpeed := float64(2*refNominal) / float64(refBefore+refKernel())

	units, slices := w.units(cfg.Seconds), sliceCount(cfg.Seconds)
	runtime.GC()
	win := runWindow(w, inst, units, slices)
	res.Digest = win.digest()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(inst)

	res.add("sim_s_per_ref_s", win.perRef(), "sim-s/s")
	res.add("setup_s", Median(setups)*setupSpeed, "s")

	// Reported on every run, but not end-to-end metrics: the live heap
	// moves by more than the 2% a heap bound could allow from seed to
	// seed; the unscaled rate and the machine's speed show what the host
	// did to the run; ping latency exists only on the closed-loop
	// workload, and error_rate is zero on two workloads, so neither can
	// carry a bound on all four.
	res.add("heap_live_mb", float64(ms.HeapAlloc-refBytes)/1e6, "MB")
	res.add("sim_s_per_wall_s", win.perWall(), "sim-s/s")
	res.add("ref.machine_speed", win.refWall/win.wall.Seconds(), "ratio")
	st := win.st
	var p50, p99, n float64
	if h := st.latency; h != nil {
		p50, p99, n = h.Quantile(0.50)/1e3, h.Quantile(0.99)/1e3, float64(h.Count())
	}
	res.add("ping_wall_us_p50", p50, "us")
	res.add("ping_wall_us_p99", p99, "us")
	res.add("ping_n", n, "count")
	// Replies in the window include late answers to probes sent before
	// it, so this share can dip below zero.
	res.add("error_rate", 1-ratio(float64(st.replies), float64(st.sent)), "share")

	checkWindow(res, w, inst, units, win)
	res.Attempted = st.sent
	switch {
	case !res.Correct():
		res.Failed = st.sent
	case w.minDelivery == 1 && st.replies < st.sent:
		res.Failed = st.sent - st.replies
	}

	if cfg.Trace {
		inst = nil
		traceRun(res, w, cfg.Seed, units, slices, win)
	}
	return res
}

// window is one timed window's outcome.
type window struct {
	st   probeStats
	sim  float64       // simulated seconds the window covered
	wall time.Duration // wall time of its slices
	// refWall is the slices' wall time at the reference machine's speed:
	// each slice's wall time times the machine's speed beside it, the
	// reference kernel's nominal time over its mean time on either side
	// of the slice.
	refWall float64
	events  uint64
	windows uint64 // shard synchronization windows
}

func (win window) perWall() float64 { return win.sim / win.wall.Seconds() }
func (win window) perRef() float64  { return win.sim / win.refWall }

func (win window) digest() Digest {
	return Digest{
		Sent: win.st.sent, Replies: win.st.replies, RTTHash: fmt.Sprintf("%016x", win.st.rttHash),
		Events: win.events, Windows: win.windows,
	}
}

// sliceCount splits a window of the given nominal seconds into
// eighth-second slices, at most 80: the host's speed changes within a
// second, and the shorter the slice, the closer the kernel timed beside
// it tracks the speed the slice ran at.
func sliceCount(seconds float64) int {
	return min(80, max(1, int(seconds*8)))
}

// runWindow runs units of work on inst in slices, timing each and the
// reference kernel between them. The host's speed drifts by tens of
// percent within a second; converting each slice's wall time to
// reference seconds at the speed the kernel measured beside it removes
// most of that drift. Summing before dividing averages out the noise of
// the single kernel runs, which a median of per-slice ratios keeps.
func runWindow(w *Workload, inst instance, units, slices int) window {
	wd := inst.world()
	ev0, win0 := wd.EventsFired(), groupWindows(inst)
	inst.mark()
	var win window
	var ref, next time.Duration
	harness(func() { ref = refKernel() })
	done := 0
	for i := 1; i <= slices; i++ {
		n := units*i/slices - done
		if n == 0 {
			continue
		}
		ts := time.Now()
		inst.run(n)
		d := time.Since(ts)
		harness(func() { next = refKernel() })
		win.wall += d
		win.refWall += d.Seconds() * float64(2*refNominal) / float64(ref+next)
		ref = next
		done += n
	}
	win.sim = (time.Duration(units) * w.unit).Seconds()
	// The regional worlds' probe merge is harness work: it is untimed,
	// so the traced run leaves it out of the attribution too.
	harness(func() { win.st = inst.probes() })
	win.events = wd.EventsFired() - ev0
	win.windows = groupWindows(inst) - win0
	return win
}

// harness runs fn under the pprof label the traced run's attribution
// leaves out.
func harness(fn func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", "harness"), func(context.Context) { fn() })
}

// checkWindow holds the window's outputs to what a correct simulation
// produces.
func checkWindow(res *Result, w *Workload, inst instance, units int, win window) {
	st := win.st
	if want := inst.expectedSent(units); st.sent != want {
		res.failf("%s: sent %d probes in the window, want exactly %d", w.Name, st.sent, want)
	}
	if st.rtts != st.replies {
		res.failf("%s: %d RTT samples for %d replies", w.Name, st.rtts, st.replies)
	}
	if st.sent > 0 && float64(st.replies) < w.minDelivery*float64(st.sent) {
		res.failf("%s: %d of %d probes answered, want at least %.0f%%",
			w.Name, st.replies, st.sent, w.minDelivery*100)
	}
	if win.events == 0 {
		res.failf("%s: no events fired in the window", w.Name)
	}
}

func groupWindows(inst instance) uint64 {
	if g := inst.world().Shards(); g != nil {
		return g.Windows()
	}
	return 0
}

// profile runs fn under the CPU profiler and returns the decoded
// samples.
func profile(fn func()) []cpuSample {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		panic(fmt.Sprintf("bench: start cpu profile: %v", err))
	}
	fn()
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return samples
}

// runtimeSample reads the runtime metrics the per-layer report uses.
func runtimeSample() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return s
}

func rtFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// schedLatencyP99 returns the p99 of goroutine scheduling latency over
// the interval between two /sched/latencies histograms, in seconds.
func schedLatencyP99(before, after metrics.Sample) float64 {
	if before.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	hb, ha := before.Value.Float64Histogram(), after.Value.Float64Histogram()
	var total uint64
	delta := make([]uint64, len(ha.Counts))
	for i := range ha.Counts {
		delta[i] = ha.Counts[i] - hb.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := (total*99 + 99) / 100
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= rank {
			if up := ha.Buckets[i+1]; up < 1e300 {
				return up
			}
			return ha.Buckets[i]
		}
	}
	return 0
}

// registryCounts sums the registry counters the per-layer report uses
// across every host and channel.
type registryCounts struct {
	framesStarted, damaged, heard float64 // channel totals
	sent, deferrals               float64 // transceiver totals
	notForUs, kissFrames          float64 // driver totals
	rdmSent, rdmResent            float64
	rdmAcksOut, rdmDelivered      float64
}

func readRegistry(reg *obs.Registry) registryCounts {
	var c registryCounts
	for _, s := range reg.Snapshot() {
		n, v := s.Name, s.Value
		switch {
		case hasPrefixSuffix(n, "radio.", ".frames_started"):
			c.framesStarted += v
		case hasPrefixSuffix(n, "radio.", ".frames_damaged"):
			c.damaged += v
		case hasPrefixSuffix(n, "radio.", ".frames_heard"):
			c.heard += v
		case hasPrefixSuffix(n, "host.", ".rf.frames_sent"):
			c.sent += v
		case hasPrefixSuffix(n, "host.", ".rf.csma_deferrals"):
			c.deferrals += v
		case hasPrefixSuffix(n, "host.", ".drv.not_for_us"):
			c.notForUs += v
		case hasPrefixSuffix(n, "host.", ".drv.kiss_frames"):
			c.kissFrames += v
		case hasPrefixSuffix(n, "host.", ".rdm.sent"):
			c.rdmSent += v
		case hasPrefixSuffix(n, "host.", ".rdm.resent"):
			c.rdmResent += v
		case hasPrefixSuffix(n, "host.", ".rdm.acks_out"):
			c.rdmAcksOut += v
		case hasPrefixSuffix(n, "host.", ".rdm.delivered"):
			c.rdmDelivered += v
		}
	}
	return c
}

func hasPrefixSuffix(s, prefix, suffix string) bool {
	return strings.HasPrefix(s, prefix) && strings.HasSuffix(s, suffix)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traceRun builds the world afresh and runs the untraced window's
// work again under the CPU profiler, bracketed by registry and runtime
// snapshots, then appends the per-layer metrics. Being the same work,
// the traced window must reproduce the untraced window's digest.
func traceRun(res *Result, w *Workload, seed int64, units, slices int, untraced window) {
	labelled := func(phase string, fn func()) {
		pprof.Do(context.Background(), pprof.Labels("workload", w.Name, "phase", phase),
			func(context.Context) { fn() })
	}
	var (
		inst     instance
		reg      *obs.Registry
		reg0     registryCounts
		sh0      []uint64
		cross0   uint64
		rt0, rt1 []metrics.Sample
		win      window
	)
	runtime.GC()
	samples := profile(func() {
		labelled("setup", func() { inst = w.build(seed) })
		// Building the registry and collecting setup's garbage are the
		// harness's work, not the window's: attribution drops them.
		labelled("harness", func() {
			reg = inst.world().Registry()
			reg0 = readRegistry(reg)
			sh0, cross0 = shardCounts(inst.world())
			runtime.GC()
		})
		rt0 = runtimeSample()
		labelled("run", func() { win = runWindow(w, inst, units, slices) })
		rt1 = runtimeSample()
	})
	reg1 := readRegistry(reg)
	sh1, cross1 := shardCounts(inst.world())
	runtime.GC() // also publishes the heap profile obsHeapBytes reads
	obsHeap := obsHeapBytes()
	runtime.KeepAlive(inst)

	if got, want := win.digest(), untraced.digest(); got != want {
		res.failf("%s: traced window digest %s differs from untraced %s", w.Name, got, want)
	}

	a := attribute(samples)
	share := func(layer string) float64 { return a.Share(a.Self[layer]) }
	perSim := func(v float64) float64 { return v / win.sim }
	res.add("sim.sched.cpu_share", share("sim.sched"), "share")
	res.add("sim.sched.ns_per_event", ratio(float64(untraced.wall.Nanoseconds()), float64(untraced.events)), "ns")
	res.add("sim.sched.events_per_sim_s", perSim(float64(win.events)), "1/sim-s")

	var groupShare, windows, crossings, imbalance, schedP99 float64
	if len(sh0) > 0 {
		groupShare = a.Share(a.Group)
		windows = perSim(float64(win.windows))
		crossings = perSim(float64(cross1 - cross0))
		var max, sum float64
		for i := range sh1 {
			d := float64(sh1[i] - sh0[i])
			sum += d
			if d > max {
				max = d
			}
		}
		imbalance = ratio(max, sum/float64(len(sh1)))
		schedP99 = schedLatencyP99(rt0[5], rt1[5]) * 1e6
	}
	res.add("sim.group.cpu_share", groupShare, "share")
	res.add("sim.group.windows_per_sim_s", windows, "1/sim-s")
	res.add("sim.group.crossings_per_sim_s", crossings, "1/sim-s")
	res.add("sim.group.shard_imbalance", imbalance, "ratio")
	res.add("sim.group.sched_latency_p99_us", schedP99, "us")

	res.add("ax25.cpu_share", share("ax25"), "share")
	res.add("radio.cpu_share", share("radio"), "share")
	res.add("radio.frames_per_sim_s", perSim(reg1.framesStarted-reg0.framesStarted), "1/sim-s")
	res.add("radio.damaged_share", ratio(reg1.damaged-reg0.damaged,
		reg1.heard-reg0.heard+reg1.damaged-reg0.damaged), "share")
	res.add("radio.deferrals_per_frame", ratio(reg1.deferrals-reg0.deferrals, reg1.sent-reg0.sent), "ratio")
	for _, l := range []string{"serial", "kiss", "tnc", "core"} {
		res.add(l+".cpu_share", share(l), "share")
	}
	res.add("core.not_for_us_share", ratio(reg1.notForUs-reg0.notForUs, reg1.kissFrames-reg0.kissFrames), "share")
	for _, l := range []string{"arp", "ether", "ipstack", "rdm"} {
		res.add(l+".cpu_share", share(l), "share")
	}
	res.add("rdm.resent_share", ratio(reg1.rdmResent-reg0.rdmResent,
		reg1.rdmSent-reg0.rdmSent+reg1.rdmResent-reg0.rdmResent), "share")
	res.add("rdm.acks_per_msg", ratio(reg1.rdmAcksOut-reg0.rdmAcksOut, reg1.rdmDelivered-reg0.rdmDelivered), "ratio")
	res.add("obs.cpu_share", a.Share(a.Obs), "share")
	res.add("obs.heap_mb", obsHeap/1e6, "MB")
	res.add("world.cpu_share", share("world"), "share")
	res.add("setup.cpu_share", a.Share(a.Setup), "share")

	busy := rtFloat(rt1[1]) - rtFloat(rt0[1]) - (rtFloat(rt1[2]) - rtFloat(rt0[2]))
	res.add("runtime.gc_cpu_share", ratio(rtFloat(rt1[0])-rtFloat(rt0[0]), busy), "share")
	res.add("runtime.alloc_kb_per_sim_s", perSim(rtFloat(rt1[3])-rtFloat(rt0[3]))/1024, "KiB/sim-s")
	res.add("runtime.gc_cycles", rtFloat(rt1[4])-rtFloat(rt0[4]), "count")
	res.add("runtime.sched_cpu_share", share("runtime.sched"), "share")
	res.add("runtime.alloc_cpu_share", share("runtime.alloc"), "share")
	res.add("harness.cpu_share", share("harness"), "share")
	res.add("other.cpu_share", share("other"), "share")
	res.add("trace.coverage", 1-share("unattributed"), "share")
	res.add("trace.overhead", ratio(win.perRef(), untraced.perRef()), "ratio")
}

// shardCounts reads the per-shard event counts and the cross-shard
// message count; both are empty on the single-loop engine.
func shardCounts(wd *world.World) (events []uint64, crossings uint64) {
	for _, s := range wd.ShardStats() {
		events = append(events, s.Events)
	}
	if g := wd.Shards(); g != nil {
		crossings = g.Crossings()
	}
	return events, crossings
}
