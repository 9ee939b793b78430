// Running a compiled scenario and gating the results. Evaluate is the
// distributional CI check: one deterministic run per seed, aggregated
// through the same percentile machinery as experiments.Sweep, then
// compared against the scenario's declared bands. Reports never print
// wall-clock anything, so the output of two runs diffs clean.

package scenario

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"packetradio/internal/experiments"
)

// RunStats is one seed's outcome: baseline and pair-flow probes
// combined.
type RunStats struct {
	Seed          int64
	Sent, Replies uint64
	Delivery      float64 // Replies/Sent (0 when nothing was sent)

	// RTTs holds every reply's round-trip time in deterministic order:
	// the large world's baseline probes first, then the pair flows and
	// seattle baseline probes, each in arrival order.
	RTTs []time.Duration

	// ControlShare is MAC control airtime over total airtime, summed
	// across channels (0 when the channels never carried a frame).
	ControlShare float64

	// SpanShares and SpanDurs are the per-stage latency-attribution
	// samples from the tracer (one share and one duration per complete
	// trace, keyed by stage name). Nil unless the runner had a tracer.
	SpanShares map[string][]float64
	SpanDurs   map[string][]time.Duration
}

// RTTPercentile reports the p-th percentile (0..100) of this seed's
// RTTs, 0 if there were no replies.
func (s *RunStats) RTTPercentile(p int) time.Duration {
	if len(s.RTTs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), s.RTTs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Run steps the world through warmup plus the timed window and
// collects the stats. A Runner runs once.
func (r *Runner) Run() RunStats {
	if r.ran {
		panic("scenario: Runner.Run called twice (Compile a fresh one per run)")
	}
	r.ran = true
	r.W.Run(r.Scenario.Run.Warmup.D())
	if r.Tracer != nil {
		// Gate the timed window only: traces cut in half by the warmup
		// boundary would otherwise skew the attribution.
		r.Tracer.Reset()
	}
	r.W.Run(r.Scenario.Run.Duration.D())
	return r.Stats()
}

// Stats assembles the RunStats for the run so far.
func (r *Runner) Stats() RunStats {
	st := RunStats{Seed: r.Seed}
	if lw := r.Large; lw != nil {
		st.Sent += lw.Sent
		st.Replies += lw.Replies
		st.RTTs = append(st.RTTs, lw.RTTs...)
	}
	st.Sent += r.pairSent
	st.Replies += r.pairReplies
	st.RTTs = append(st.RTTs, r.pairRTTs...)
	if st.Sent > 0 {
		st.Delivery = float64(st.Replies) / float64(st.Sent)
	}
	var air, ctl time.Duration
	for _, ch := range r.Channels {
		air += ch.Stats.Airtime
		ctl += ch.Stats.ControlAirtime
	}
	if air > 0 {
		st.ControlShare = float64(ctl) / float64(air)
	}
	if r.Tracer != nil {
		bd := r.Tracer.Breakdown()
		st.SpanShares = make(map[string][]float64)
		st.SpanDurs = make(map[string][]time.Duration)
		for _, stage := range bd.Stages() {
			st.SpanShares[stage] = bd.ShareSamples(stage)
			st.SpanDurs[stage] = bd.DurationSamples(stage)
		}
	}
	return st
}

// GateCheck is one gate comparison.
type GateCheck struct {
	Name  string
	Value string
	Bound string
	OK    bool
}

// GateReport is a full scenario evaluation: the per-seed stats, the
// across-seed aggregation, and every gate's verdict.
type GateReport struct {
	Scenario *Scenario
	Point    experiments.SweepPoint
	Stats    []RunStats // seed order
	Checks   []GateCheck
}

// Pass reports whether every gate held.
func (g *GateReport) Pass() bool {
	for _, c := range g.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Evaluate sweeps the scenario across seeds 1..seeds (0 = the
// scenario's gates.seeds, default 8) and checks its gates. Runs for
// different seeds execute concurrently up to GOMAXPROCS, which cannot
// affect results (each seed is an independent deterministic world and
// the aggregation is order-free).
func Evaluate(sc *Scenario, seeds int) (*GateReport, error) {
	if seeds <= 0 {
		seeds = 8
		if sc.Gates != nil && sc.Gates.Seeds > 0 {
			seeds = sc.Gates.Seeds
		}
	}
	// Compile once up front so a compile error surfaces as an error,
	// not a panic inside the sweep goroutines.
	if _, err := Compile(sc, 1); err != nil {
		return nil, err
	}
	rep := &GateReport{Scenario: sc, Stats: make([]RunStats, seeds)}
	rep.Point = experiments.SweepRuns(seeds, runtime.GOMAXPROCS(0), func(seed int64) experiments.RunSample {
		r, err := Compile(sc, seed)
		if err != nil {
			panic(err) // seed-independent; the probe above caught it
		}
		st := r.Run()
		rep.Stats[seed-1] = st
		return experiments.RunSample{Delivery: st.Delivery, RTTs: st.RTTs}
	})
	rep.check()
	return rep, nil
}

// check fills Checks from the scenario's gates.
func (g *GateReport) check() {
	gates := g.Scenario.Gates
	if gates == nil {
		return
	}
	add := func(name string, ok bool, value, bound string) {
		g.Checks = append(g.Checks, GateCheck{Name: name, Value: value, Bound: bound, OK: ok})
	}
	ratio := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	if d := gates.Delivery; d != nil {
		if d.MedianMin > 0 {
			add("delivery.median", g.Point.DeliveryMedian >= d.MedianMin,
				ratio(g.Point.DeliveryMedian), ">= "+ratio(d.MedianMin))
		}
		if d.P95Min > 0 {
			add("delivery.p95", g.Point.DeliveryP95 >= d.P95Min,
				ratio(g.Point.DeliveryP95), ">= "+ratio(d.P95Min))
		}
		if d.MinMin > 0 {
			add("delivery.min", g.Point.DeliveryMin >= d.MinMin,
				ratio(g.Point.DeliveryMin), ">= "+ratio(d.MinMin))
		}
	}
	if rt := gates.RTT; rt != nil {
		if rt.MedianMax > 0 {
			add("rtt.median", g.Point.RTTMedian <= rt.MedianMax.D(),
				g.Point.RTTMedian.String(), "<= "+rt.MedianMax.String())
		}
		if rt.P95Max > 0 {
			add("rtt.p95", g.Point.RTTP95 <= rt.P95Max.D(),
				g.Point.RTTP95.String(), "<= "+rt.P95Max.String())
		}
	}
	if max := gates.ControlAirtimeShareMax; max > 0 {
		worst := 0.0
		for _, st := range g.Stats {
			if st.ControlShare > worst {
				worst = st.ControlShare
			}
		}
		add("control_airtime.share", worst <= max, ratio(worst), "<= "+ratio(max))
	}
	for _, sl := range gates.SpanLatency {
		var shares []float64
		var durs []time.Duration
		for _, st := range g.Stats {
			shares = append(shares, st.SpanShares[sl.Stage]...)
			durs = append(durs, st.SpanDurs[sl.Stage]...)
		}
		if sl.ShareP95Max > 0 {
			if len(shares) == 0 {
				add("span."+sl.Stage+".share_p95", false, "no traces", "<= "+ratio(sl.ShareP95Max))
			} else {
				p95 := floatPercentile(shares, 95)
				add("span."+sl.Stage+".share_p95", p95 <= sl.ShareP95Max,
					ratio(p95), "<= "+ratio(sl.ShareP95Max))
			}
		}
		if sl.P95Max > 0 {
			if len(durs) == 0 {
				add("span."+sl.Stage+".p95", false, "no traces", "<= "+sl.P95Max.String())
			} else {
				p95 := durPercentile(durs, 95)
				add("span."+sl.Stage+".p95", p95 <= sl.P95Max.D(),
					p95.String(), "<= "+sl.P95Max.String())
			}
		}
	}
}

// floatPercentile reports the p-th percentile of vs by the same
// index rule RTTPercentile uses, so span gates and RTT gates agree on
// what "p95" means. vs may arrive unsorted and is not modified.
func floatPercentile(vs []float64, p int) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func durPercentile(vs []time.Duration, p int) time.Duration {
	sorted := append([]time.Duration(nil), vs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// WriteText renders the report: the scenario summary, one line per
// seed, the aggregates, and each gate's verdict. Deterministic for a
// given scenario and seed count — CI diffs two runs byte for byte.
func (g *GateReport) WriteText(w io.Writer) {
	fmt.Fprintln(w, g.Scenario.Summary())
	fmt.Fprintf(w, "%6s %8s %8s %9s %12s %12s %14s\n",
		"seed", "sent", "replies", "delivery", "rtt_p50", "rtt_p95", "control_share")
	for _, st := range g.Stats {
		fmt.Fprintf(w, "%6d %8d %8d %9.3f %12s %12s %14.3f\n",
			st.Seed, st.Sent, st.Replies, st.Delivery,
			st.RTTPercentile(50), st.RTTPercentile(95), st.ControlShare)
	}
	fmt.Fprintf(w, "across seeds: delivery median=%.3f p95=%.3f min=%.3f, rtt median=%s p95=%s\n",
		g.Point.DeliveryMedian, g.Point.DeliveryP95, g.Point.DeliveryMin,
		g.Point.RTTMedian, g.Point.RTTP95)
	if len(g.Checks) == 0 {
		fmt.Fprintln(w, "gates: none declared")
		return
	}
	for _, c := range g.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "gate %-24s %s (want %s) ... %s\n", c.Name, c.Value, c.Bound, verdict)
	}
	if g.Pass() {
		fmt.Fprintln(w, "gates: PASS")
	} else {
		fmt.Fprintln(w, "gates: FAIL")
	}
}

// Report renders WriteText to a string.
func (g *GateReport) Report() string {
	var b strings.Builder
	g.WriteText(&b)
	return b.String()
}
