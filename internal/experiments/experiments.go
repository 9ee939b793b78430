// Package experiments regenerates the paper's evaluation: both figures
// (F1 hardware path, F2 ISO/OSI layering) and every quantified claim in
// §2.3, §3 and §4 (experiments E1–E10), plus the experiments that
// evaluate what the simulator grew past the paper (E11 on). Registry
// lists them in report order; DESIGN.md §4 carries the index and
// EXPERIMENTS.md records expected-vs-measured shapes. Each experiment
// prints a table to the supplied writer and returns headline metrics
// that the root benchmarks report and the tests assert on.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/world"
)

// Result carries an experiment's headline numbers: a map of metric
// name to value (units encoded in the name).
type Result struct {
	ID      string
	Claim   string
	Metrics map[string]float64
}

// newResult starts experiment id's Result, with the claim its
// Registry entry states.
func newResult(id string) *Result {
	r := &Result{ID: id, Metrics: make(map[string]float64)}
	for _, e := range Registry() {
		if e.ID == id {
			r.Claim = e.Claim
			break
		}
	}
	return r
}

func (r *Result) set(name string, v float64) { r.Metrics[name] = v }

// Get returns a metric (0 when absent).
func (r *Result) Get(name string) float64 { return r.Metrics[name] }

// table is a small helper for aligned output.
type table struct {
	w  *tabwriter.Writer
	io io.Writer
}

func newTable(w io.Writer, id, title string) *table {
	fmt.Fprintf(w, "\n== %s: %s ==\n", id, title)
	return &table{w: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0), io: w}
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, c)
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() }

func ms(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond)) }
func sec(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}

// pingOnce sends one echo and runs the world until the reply (or the
// deadline), returning the RTT and whether it arrived. The stop is
// scoped to this run, so a reply that lands after the deadline cannot
// cut a later run short.
func pingOnce(w *world.World, from *world.Host, dst ip.Addr, size int, deadline time.Duration) (time.Duration, bool) {
	var rtt time.Duration
	got := false
	from.Stack.Ping(dst, size, func(_ uint16, d time.Duration, _ ip.Addr) { rtt, got = d, true })
	w.Sched.RunUntilDone(w.Sched.Now().Add(deadline), func() bool { return got })
	return rtt, got
}

// Experiment is one entry of the evaluation suite.
type Experiment struct {
	ID    string
	Claim string // what the experiment shows, as its Result and -list state it
	Run   func(io.Writer) *Result
}

// Registry lists the evaluation suite in report order. RunAll and the
// experiments command's -list and -only all read it, so an experiment
// and its claim are declared once. (A function rather than a variable:
// each experiment reads its own claim from it through newResult.)
func Registry() []Experiment {
	return []Experiment{
		{"F1", "Figure 1: hardware path latency decomposition", F1},
		{"F2", "Figure 2: ISO/OSI layering and per-layer overhead", F2},
		{"E1", "§3: transmission time dominates at 1200 bps", E1},
		{"E2", "§3: gateway slowdown under channel load; TNC filter ablation", E2},
		{"E3", "§4.1: fixed vs adaptive retransmission timeouts", E3},
		{"E4", "§4.2: single class-A route vs regional gateways", E4},
		{"E5", "§4.3: gateway access-control table life cycle", E5},
		{"E6", "§1: source-routed digipeating, 0-8 hops", E6},
		{"E7", "§2.3: ARP over AX.25, cold vs warm", E7},
		{"E8", "§2.4: IP over the NET/ROM backbone", E8},
		{"E9", "§2.3/§5: telnet, FTP and SMTP across the gateway", E9},
		{"E10", "substrate: CSMA channel capacity", E10},
		{"E11", "RSPF reconverges after gateway failure; static routing blackholes", E11},
		{"E12", "RSPF control-plane overhead on the 1200 bps channel", E12},
		{"E13", "delivery ratio under link churn: static vs RSPF", E13},
		{"E14", "simulator scaling: N-station worlds per wall second", E14},
		{"E16", "DAMA vs CSMA: delivery past the saturation knee", E16},
		{"E17", "SOCK_RDM vs TCP: goodput and airtime on the 1200 bps path", E17},
	}
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer) []*Result {
	var out []*Result
	for _, e := range Registry() {
		out = append(out, e.Run(w))
	}
	return out
}
