// Causal packet-journey tracing (DESIGN.md §3i): where virtual time
// goes for the packets that survive. The ping ledger next door answers
// "did it arrive, and if not, where did it die"; the Tracer answers
// "it took 4 seconds — how much was ARP hold, how much CSMA deferral,
// how much DAMA poll wait, how much serial drain, how much airtime".
//
// The design is crossing-based rather than begin/end-based: every seam
// a traced datagram crosses records one timestamped crossing point in
// the seam recorder (seam.go), and spans are reconstructed afterwards
// as the intervals between consecutive crossings of one journey.
// Because a journey's crossings telescope, the stage spans sum to
// exactly the end-to-end latency — the property E19 gates at >= 99%.
// The global span stream orders traces by TraceID, making it
// reflect.DeepEqual-comparable across engines.
//
// Tracing costs nothing when disabled: the seam hooks are only
// installed by World.AttachTracer (or another recorder view), and an
// un-attached world carries no recorder state at all (the CI gate
// TestTracingDisabledAddsNoAllocs pins this).

package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/sim"
)

// Span stage names. The stage is keyed on the crossing that *ends* it
// (with one look-back to tell radio ingress from backbone transit), so
// the vocabulary is closed and identical on both engines.
const (
	StageIPOut      = "ip-out"     // route lookup + driver output path
	StageARPWait    = "arp-wait"   // held awaiting ARP resolution
	StageDrvOut     = "drv-out"    // resolved datagram to KISS framing
	StageSerialTx   = "serial-tx"  // KISS bytes draining down the serial line
	StageMACWait    = "mac-wait"   // MAC queue + CSMA deferral / DAMA poll wait
	StageAirtime    = "airtime"    // key-up to end of frame at the addressee
	StageRxSerial   = "rx-serial"  // receiver TNC + serial + driver ingress
	StageIPRx       = "ip-rx"      // received frame to stack routing decision
	StageBackbone   = "backbone"   // Ethernet transit between stacks
	StageTurnaround = "turnaround" // destination host turning an echo around
)

// SpanStages lists every stage name the tracer can emit, in journey
// order — the vocabulary scenario span_latency gates validate against.
func SpanStages() []string {
	return []string{
		StageIPOut, StageARPWait, StageDrvOut, StageSerialTx, StageMACWait,
		StageAirtime, StageRxSerial, StageIPRx, StageBackbone, StageTurnaround,
	}
}

// stageName names the span ending at crossing cur, having started at
// crossing prev.
func stageName(prev, cur uint8) string {
	switch cur &^ ptReply {
	case PtOrigin:
		return StageTurnaround // reply-leg origin: the echo turned around
	case PtARPHold:
		return StageIPOut
	case PtARPFlush:
		return StageARPWait
	case PtKISSTx:
		return StageDrvOut
	case PtMACQueue:
		return StageSerialTx
	case PtTxStart:
		return StageMACWait
	case PtAirRx:
		return StageAirtime
	case PtKISSRx:
		return StageRxSerial
	case PtFwd, PtArrive:
		if prev&^ptReply == PtKISSRx {
			return StageIPRx
		}
		return StageBackbone
	}
	return "unknown"
}

// Cross is one recorded seam crossing.
type Cross struct {
	T     sim.Time
	Point uint8
	Who   string // the host/station/transceiver at the seam
	Arg   string // seam detail: "deferrals=3", "master=GW1", ...
}

// Span is one reconstructed stage interval of a trace.
type Span struct {
	ID         TraceID
	Stage      string
	Who        string // who ended the stage (the arriving crossing's seam)
	Arg        string
	Start, End sim.Time
}

// Duration reports the span's width.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Trace is one journey's crossings in causal order, as reconstructed
// by Tracer.Traces.
type Trace struct {
	ID        TraceID
	Crossings []Cross
	// Loss is the first loss pinned on the journey — "req: collision",
	// "rep: ipq overflow" — or "" if none was seen.
	Loss string
}

// Complete reports whether the journey ran origin-to-arrival: an ICMP
// trace must see the reply's arrival back at the station, any other
// trace its datagram's arrival at the destination stack.
func (tr Trace) Complete() bool {
	n := len(tr.Crossings)
	if n < 2 || tr.Crossings[0].Point != PtOrigin {
		return false
	}
	last := tr.Crossings[n-1].Point
	if tr.ID.Proto == ip.ProtoICMP {
		return last == PtArrive|ptReply
	}
	return last == PtArrive
}

// Elapsed is the end-to-end latency: last crossing minus first. For a
// complete ICMP trace this is the round-trip time.
func (tr Trace) Elapsed() time.Duration {
	if len(tr.Crossings) == 0 {
		return 0
	}
	return tr.Crossings[len(tr.Crossings)-1].T.Sub(tr.Crossings[0].T)
}

// Spans reconstructs the stage intervals between consecutive
// crossings. They telescope: their durations sum to Elapsed exactly.
func (tr Trace) Spans() []Span {
	if len(tr.Crossings) < 2 {
		return nil
	}
	out := make([]Span, 0, len(tr.Crossings)-1)
	for i := 1; i < len(tr.Crossings); i++ {
		prev, cur := tr.Crossings[i-1], tr.Crossings[i]
		out = append(out, Span{
			ID:    tr.ID,
			Stage: stageName(prev.Point, cur.Point),
			Who:   cur.Who,
			Arg:   cur.Arg,
			Start: prev.T,
			End:   cur.T,
		})
	}
	return out
}

// WriteWaterfall renders the trace as a per-stage waterfall: offset,
// width, stage, seam, and a proportional bar.
func (tr Trace) WriteWaterfall(w io.Writer) {
	spans := tr.Spans()
	total := tr.Elapsed()
	fmt.Fprintf(w, "trace %s: %v over %d stages\n", tr.ID, total, len(spans))
	const barWidth = 32
	for _, s := range spans {
		bar := 0
		if total > 0 {
			bar = int(int64(barWidth) * int64(s.Duration()) / int64(total))
		}
		detail := s.Who
		if s.Arg != "" {
			detail += " " + s.Arg
		}
		fmt.Fprintf(w, "  +%-12v %-12v %-10s %-20s |%s\n",
			s.Start.Sub(tr.Crossings[0].T), s.Duration(), s.Stage, detail,
			strings.Repeat("#", bar+1))
	}
}

// Tracer is the span view over a seam recorder: read Traces, Spans and
// Breakdown between runs.
type Tracer struct{ rec *Recorder }

// Tracer returns the recorder's span view and starts buffering
// crossings.
func (r *Recorder) Tracer() *Tracer {
	r.keep = true
	return &Tracer{rec: r}
}

// Reset discards every recorded crossing — for every view of the
// recorder — called between a warm-up window and the measured window
// so the breakdown reflects steady state. Journeys straddling the
// reset lose their early crossings.
func (t *Tracer) Reset() { t.rec.buf = t.rec.buf[:0] }

// Traces reconstructs every journey, ordered by TraceID, each one's
// crossings in causal order on both engines.
func (t *Tracer) Traces() []Trace { return t.rec.journeys() }

// Spans returns the global span stream: every trace's spans, traces in
// TraceID order — the reflect.DeepEqual surface the cross-engine tests
// and the CI scenario diff compare.
func (t *Tracer) Spans() []Span {
	var out []Span
	for _, tr := range t.Traces() {
		out = append(out, tr.Spans()...)
	}
	return out
}

// Breakdown aggregates the complete traces into the per-stage latency
// attribution.
func (t *Tracer) Breakdown() *Breakdown {
	b := newBreakdown()
	for _, tr := range t.Traces() {
		if !tr.Complete() {
			b.Incomplete++
			continue
		}
		b.observe(tr)
	}
	return b
}

// SpanBounds is the histogram bucket ladder for stage durations, in
// seconds: 1-2-5 decades from 1 ms to 200 s, wide enough for a
// 1200 bps path's worst ARP storm.
func SpanBounds() []float64 {
	return []float64{
		0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
		1, 2, 5, 10, 20, 50, 100, 200,
	}
}

// Breakdown is the per-stage latency attribution over complete traces:
// totals, durations, and per-trace share samples for the scenario
// gates.
type Breakdown struct {
	Traces     int           // complete traces aggregated
	Incomplete int           // journeys still mid-flight (or lost)
	Total      time.Duration // summed end-to-end latency

	totals map[string]time.Duration
	counts map[string]int
	durs   map[string][]time.Duration // every span's width, per stage
	shares map[string][]float64       // per complete trace: stage share of its RTT
}

func newBreakdown() *Breakdown {
	return &Breakdown{
		totals: make(map[string]time.Duration),
		counts: make(map[string]int),
		durs:   make(map[string][]time.Duration),
		shares: make(map[string][]float64),
	}
}

func (b *Breakdown) observe(tr Trace) {
	elapsed := tr.Elapsed()
	b.Traces++
	b.Total += elapsed
	per := make(map[string]time.Duration)
	for _, s := range tr.Spans() {
		d := s.Duration()
		b.totals[s.Stage] += d
		b.counts[s.Stage]++
		b.durs[s.Stage] = append(b.durs[s.Stage], d)
		per[s.Stage] += d
	}
	// Every known stage gets a share sample per trace — zero when the
	// trace skipped the stage — so share percentiles describe the
	// population, not just the traces that hit the stage.
	for _, stage := range SpanStages() {
		share := 0.0
		if elapsed > 0 {
			share = float64(per[stage]) / float64(elapsed)
		}
		b.shares[stage] = append(b.shares[stage], share)
	}
}

// Stages lists the stages that actually occurred, in journey order.
func (b *Breakdown) Stages() []string {
	var out []string
	for _, s := range SpanStages() {
		if b.counts[s] > 0 {
			out = append(out, s)
		}
	}
	return out
}

// Count reports how many spans of the stage occurred.
func (b *Breakdown) Count(stage string) int { return b.counts[stage] }

// Share reports the stage's fraction of all end-to-end latency.
func (b *Breakdown) Share(stage string) float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.totals[stage]) / float64(b.Total)
}

// DurationQuantile reports the q-quantile (0..1) of the stage's span
// widths.
func (b *Breakdown) DurationQuantile(stage string, q float64) time.Duration {
	samples := append([]time.Duration(nil), b.durs[stage]...)
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(q * float64(len(samples)))
	if i >= len(samples) {
		i = len(samples) - 1
	}
	return samples[i]
}

// ShareSamples returns the per-trace share samples for the stage, in
// trace order — the pool the scenario gates aggregate across seeds.
func (b *Breakdown) ShareSamples(stage string) []float64 {
	return append([]float64(nil), b.shares[stage]...)
}

// DurationSamples returns every span width of the stage, in trace
// order.
func (b *Breakdown) DurationSamples(stage string) []time.Duration {
	return append([]time.Duration(nil), b.durs[stage]...)
}

// Register publishes the stage histograms into a metrics registry
// under prefix (e.g. "trace."), refreshing on re-registration, so
// Netstat's percentile summaries cover them.
func (b *Breakdown) Register(reg *Registry, prefix string) {
	for _, stage := range b.Stages() {
		h := reg.Histogram(prefix+stage+"_seconds", SpanBounds())
		h.Reset()
		for _, d := range b.durs[stage] {
			h.Observe(d.Seconds())
		}
	}
}

// WriteText renders the attribution table: per stage, span count,
// summed time, share of end-to-end latency, and p50/p95/p99 widths.
func (b *Breakdown) WriteText(w io.Writer) {
	fmt.Fprintf(w, "latency breakdown over %d complete traces (%d incomplete), total %v\n",
		b.Traces, b.Incomplete, b.Total)
	fmt.Fprintf(w, "%-12s %8s %14s %7s %12s %12s %12s\n",
		"stage", "spans", "total", "share", "p50", "p95", "p99")
	for _, stage := range b.Stages() {
		fmt.Fprintf(w, "%-12s %8d %14v %6.1f%% %12v %12v %12v\n",
			stage, b.counts[stage], b.totals[stage], 100*b.Share(stage),
			b.DurationQuantile(stage, 0.50), b.DurationQuantile(stage, 0.95),
			b.DurationQuantile(stage, 0.99))
	}
}
