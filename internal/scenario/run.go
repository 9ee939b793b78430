// Running a compiled scenario and gating the results. Evaluate is the
// distributional CI check: one deterministic run per seed, aggregated
// across the seeds, then compared against the scenario's declared
// bands. Reports never print wall-clock anything, so the output of two
// runs diffs clean.

package scenario

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
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
	return percentile(s.RTTs, p)
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
	st.Sent += r.pairs.Sent
	st.Replies += r.pairs.Replies
	st.RTTs = append(st.RTTs, r.pairs.RTTs...)
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
// across-seed aggregates, and every gate's verdict.
type GateReport struct {
	Scenario *Scenario
	Stats    []RunStats // seed order
	Checks   []GateCheck

	// The across-seed aggregates: delivery percentiles over the
	// per-seed ratios, where DeliveryP95 is the tail-worst seed (the
	// 5th-percentile delivery — "how bad can a bad seed get"), and RTT
	// percentiles over every seed's replies pooled.
	DeliveryMedian, DeliveryP95, DeliveryMin float64
	RTTMedian, RTTP95                        time.Duration
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
// scenario's gates.seeds, default 8) and checks its gates. Seeds run
// concurrently, up to GOMAXPROCS at a time. That cannot affect the
// report: each seed is an independent deterministic world, its stats
// land in seed order, and the aggregates sort before they index.
func Evaluate(sc *Scenario, seeds int) (*GateReport, error) {
	if seeds <= 0 {
		seeds = 8
		if sc.Gates != nil && sc.Gates.Seeds > 0 {
			seeds = sc.Gates.Seeds
		}
	}
	rep := &GateReport{Scenario: sc, Stats: make([]RunStats, seeds)}
	errs := make([]error, seeds)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range rep.Stats {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			r, err := Compile(sc, int64(i+1))
			if err != nil {
				errs[i] = err
				return
			}
			rep.Stats[i] = r.Run()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rep.aggregate()
	rep.check()
	return rep, nil
}

// aggregate computes the across-seed numbers from Stats: the delivery
// median, tail-worst and minimum are sorted[n/2], sorted[n/20] and
// sorted[0] of the n per-seed ratios, and the RTT median and p95 are
// pool[m/2] and pool[m*95/100] of the m pooled replies, sorted.
func (g *GateReport) aggregate() {
	delivery := make([]float64, len(g.Stats))
	var pool []time.Duration
	for i, st := range g.Stats {
		delivery[i] = st.Delivery
		pool = append(pool, st.RTTs...)
	}
	g.DeliveryMedian = percentile(delivery, 50)
	g.DeliveryP95 = percentile(delivery, 5)
	g.DeliveryMin = percentile(delivery, 0)
	if len(pool) > 0 {
		g.RTTMedian, g.RTTP95 = percentile(pool, 50), percentile(pool, 95)
	}
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
			add("delivery.median", g.DeliveryMedian >= d.MedianMin,
				ratio(g.DeliveryMedian), ">= "+ratio(d.MedianMin))
		}
		if d.P95Min > 0 {
			add("delivery.p95", g.DeliveryP95 >= d.P95Min,
				ratio(g.DeliveryP95), ">= "+ratio(d.P95Min))
		}
		if d.MinMin > 0 {
			add("delivery.min", g.DeliveryMin >= d.MinMin,
				ratio(g.DeliveryMin), ">= "+ratio(d.MinMin))
		}
	}
	if rt := gates.RTT; rt != nil {
		if rt.MedianMax > 0 {
			add("rtt.median", g.RTTMedian <= rt.MedianMax.D(),
				g.RTTMedian.String(), "<= "+rt.MedianMax.String())
		}
		if rt.P95Max > 0 {
			add("rtt.p95", g.RTTP95 <= rt.P95Max.D(),
				g.RTTP95.String(), "<= "+rt.P95Max.String())
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
				p95 := percentile(shares, 95)
				add("span."+sl.Stage+".share_p95", p95 <= sl.ShareP95Max,
					ratio(p95), "<= "+ratio(sl.ShareP95Max))
			}
		}
		if sl.P95Max > 0 {
			if len(durs) == 0 {
				add("span."+sl.Stage+".p95", false, "no traces", "<= "+sl.P95Max.String())
			} else {
				p95 := percentile(durs, 95)
				add("span."+sl.Stage+".p95", p95 <= sl.P95Max.D(),
					p95.String(), "<= "+sl.P95Max.String())
			}
		}
	}
}

// percentile reports the p-th percentile (0..100) of vs by one index
// rule, sorted[len*p/100], so the RTT, delivery and span numbers agree
// on what "p95" means. vs must not be empty; it may arrive unsorted
// and is not modified.
func percentile[T cmp.Ordered](vs []T, p int) T {
	sorted := slices.Clone(vs)
	slices.Sort(sorted)
	return sorted[min(len(sorted)*p/100, len(sorted)-1)]
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
		g.DeliveryMedian, g.DeliveryP95, g.DeliveryMin,
		g.RTTMedian, g.RTTP95)
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
