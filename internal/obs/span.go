// Causal packet-journey tracing (DESIGN.md §3i): where virtual time
// goes for the packets that survive. The ping ledger next door answers
// "did it arrive, and if not, where did it die"; the Tracer answers
// "it took 4 seconds — how much was ARP hold, how much CSMA deferral,
// how much DAMA poll wait, how much serial drain, how much airtime".
//
// The design is crossing-based rather than begin/end-based: every seam
// a traced datagram crosses records one timestamped crossing point in
// the seam recorder (seam.go), and spans are the intervals between
// consecutive crossings of one journey. Because a journey's crossings
// telescope, the stage spans sum to exactly the end-to-end latency —
// the property E19 gates at >= 99%. The tracer folds each journey into
// its Breakdown as the journey closes; a reader that wants the
// journeys themselves collects them (Collect), in TraceID order, which
// makes the span stream reflect.DeepEqual-comparable across engines.
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
	"time"

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

// Stage indexes, in journey order; stUnknown indexes a crossing pair
// outside the vocabulary.
const (
	stIPOut = iota
	stARPWait
	stDrvOut
	stSerialTx
	stMACWait
	stAirtime
	stRxSerial
	stIPRx
	stBackbone
	stTurnaround
	stUnknown

	nStages = stUnknown // the vocabulary proper
)

// stageNames names the stages by index.
var stageNames = [...]string{
	stIPOut: StageIPOut, stARPWait: StageARPWait, stDrvOut: StageDrvOut,
	stSerialTx: StageSerialTx, stMACWait: StageMACWait, stAirtime: StageAirtime,
	stRxSerial: StageRxSerial, stIPRx: StageIPRx, stBackbone: StageBackbone,
	stTurnaround: StageTurnaround, stUnknown: "unknown",
}

// SpanStages lists every stage name the tracer can emit, in journey
// order — the vocabulary scenario span_latency gates validate against.
func SpanStages() []string { return append([]string(nil), stageNames[:nStages]...) }

// stageOf indexes the stage of the span ending at crossing cur, having
// started at crossing prev.
func stageOf(prev, cur uint8) int {
	switch cur &^ ptReply {
	case PtOrigin:
		return stTurnaround // reply-leg origin: the echo turned around
	case PtARPHold:
		return stIPOut
	case PtARPFlush:
		return stARPWait
	case PtKISSTx:
		return stDrvOut
	case PtMACQueue:
		return stSerialTx
	case PtTxStart:
		return stMACWait
	case PtAirRx:
		return stAirtime
	case PtKISSRx:
		return stRxSerial
	case PtFwd, PtArrive:
		if prev&^ptReply == PtKISSRx {
			return stIPRx
		}
		return stBackbone
	}
	return stUnknown
}

// stageName names the span ending at crossing cur, having started at
// crossing prev.
func stageName(prev, cur uint8) string { return stageNames[stageOf(prev, cur)] }

// stageIndex indexes a stage name in stageNames; a name outside the
// vocabulary reads the unknown stage.
func stageIndex(stage string) int {
	for i, s := range stageNames[:nStages] {
		if s == stage {
			return i
		}
	}
	return stUnknown
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

// Trace is one journey's crossings in causal order, as Tracer.Collect
// returns it.
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
	return n >= 2 && tr.Crossings[0].Point == PtOrigin && final(tr.ID, tr.Crossings[n-1].Point)
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

// Tracer is the span view over a seam recorder: read Breakdown between
// runs, and the journeys themselves through Collect.
type Tracer struct {
	rec *Recorder
	bd  Breakdown // over the closed journeys

	// done holds a copy of every journey closed since Collect was
	// called (collect) or the last Reset since.
	collect bool
	done    []Trace
}

// Tracer returns the recorder's span view and starts recording
// journeys.
func (r *Recorder) Tracer() *Tracer {
	if r.tracer == nil {
		r.tracer = &Tracer{rec: r}
	}
	return r.tracer
}

// Reset discards the journeys in flight and everything folded so far
// — for every view of the recorder — called between a warm-up window
// and the measured window so the breakdown reflects steady state.
// Journeys straddling the reset lose their early crossings.
func (t *Tracer) Reset() { t.rec.reset() }

func (t *Tracer) reset() { t.bd, t.done = Breakdown{}, nil }

// fold aggregates a journey as it closes — at its final arrival, at
// its first pinned loss, or when its TraceID originates again — and
// keeps a copy of it once Collect has asked for them.
func (t *Tracer) fold(tr *Trace) {
	if tr.Complete() {
		t.bd.observe(tr)
	} else {
		t.bd.Incomplete++
	}
	if t.collect {
		t.done = append(t.done, tr.clone())
	}
}

// Open returns a copy of every journey still in flight, in TraceID
// order.
func (t *Tracer) Open() []Trace {
	out := make([]Trace, 0, len(t.rec.open))
	for _, tr := range t.rec.open {
		out = append(out, tr.clone())
	}
	sortTraces(out)
	return out
}

// Collect keeps a copy of every journey the tracer closes from now on
// (Reset discards them with the rest), and returns their reader: the
// journeys kept so far and those still in flight, in TraceID order,
// the journeys of one reused ID oldest first. That order makes the
// span stream — every journey's spans in turn — the reflect.DeepEqual
// surface the cross-engine tests and the CI scenario diff compare.
func (t *Tracer) Collect() func() []Trace {
	t.collect = true
	return func() []Trace {
		out := append(append([]Trace(nil), t.done...), t.Open()...)
		sortTraces(out)
		return out
	}
}

// clone copies tr out of the recorder's storage.
func (tr *Trace) clone() Trace {
	return Trace{ID: tr.ID, Crossings: append([]Cross(nil), tr.Crossings...), Loss: tr.Loss}
}

// sortTraces orders journeys by TraceID, stably, so the journeys of
// one reused ID keep their order.
func sortTraces(trs []Trace) {
	sort.SliceStable(trs, func(i, j int) bool { return trs[i].ID.less(trs[j].ID) })
}

// Breakdown returns the per-stage latency attribution over the
// journeys closed complete so far; the journeys still in flight count
// as incomplete.
func (t *Tracer) Breakdown() *Breakdown {
	b := t.bd
	b.Incomplete += len(t.rec.open)
	return &b
}

// Breakdown is the per-stage latency attribution over complete traces:
// totals, durations, and per-trace share samples for the scenario
// gates.
type Breakdown struct {
	Traces     int           // complete traces aggregated
	Incomplete int           // journeys still mid-flight (or lost)
	Total      time.Duration // summed end-to-end latency

	// Per stage, indexed as stageNames.
	totals [len(stageNames)]time.Duration
	counts [len(stageNames)]int
	durs   [len(stageNames)][]time.Duration // every span's width
	shares [len(stageNames)][]float64       // per complete trace: the stage's share of its latency
}

func (b *Breakdown) observe(tr *Trace) {
	elapsed := tr.Elapsed()
	b.Traces++
	b.Total += elapsed
	var per [len(stageNames)]time.Duration
	for i := 1; i < len(tr.Crossings); i++ {
		prev, cur := &tr.Crossings[i-1], &tr.Crossings[i]
		st := stageOf(prev.Point, cur.Point)
		d := cur.T.Sub(prev.T)
		b.totals[st] += d
		b.counts[st]++
		b.durs[st] = append(b.durs[st], d)
		per[st] += d
	}
	// Every known stage gets a share sample per trace — zero when the
	// trace skipped the stage — so share percentiles describe the
	// population, not just the traces that hit the stage.
	for st := 0; st < nStages; st++ {
		share := 0.0
		if elapsed > 0 {
			share = float64(per[st]) / float64(elapsed)
		}
		b.shares[st] = append(b.shares[st], share)
	}
}

// Stages lists the stages that actually occurred, in journey order.
func (b *Breakdown) Stages() []string {
	var out []string
	for st := 0; st < nStages; st++ {
		if b.counts[st] > 0 {
			out = append(out, stageNames[st])
		}
	}
	return out
}

// Count reports how many spans of the stage occurred.
func (b *Breakdown) Count(stage string) int { return b.counts[stageIndex(stage)] }

// Share reports the stage's fraction of all end-to-end latency.
func (b *Breakdown) Share(stage string) float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.totals[stageIndex(stage)]) / float64(b.Total)
}

// DurationQuantile reports the q-quantile (0..1) of the stage's span
// widths.
func (b *Breakdown) DurationQuantile(stage string, q float64) time.Duration {
	samples := b.DurationSamples(stage)
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
// the order the traces closed — the pool the scenario gates aggregate
// across seeds.
func (b *Breakdown) ShareSamples(stage string) []float64 {
	return append([]float64(nil), b.shares[stageIndex(stage)]...)
}

// DurationSamples returns every span width of the stage, in the order
// the traces closed.
func (b *Breakdown) DurationSamples(stage string) []time.Duration {
	return append([]time.Duration(nil), b.durs[stageIndex(stage)]...)
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
			stage, b.Count(stage), b.totals[stageIndex(stage)], 100*b.Share(stage),
			b.DurationQuantile(stage, 0.50), b.DurationQuantile(stage, 0.95),
			b.DurationQuantile(stage, 0.99))
	}
}
