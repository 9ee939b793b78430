// Package obs is the virtual-clock observability layer: a unified
// metrics registry over the per-package counters, a bounded flight
// recorder for scheduler and MAC events, and one seam recorder that
// every packet observer reads — pcap capture at the KISS and IP seams,
// the span tracer, and the ping ledger that accounts for every
// undelivered probe by drop reason. Everything here is read-side: the substrate
// packages keep their plain struct counters (incremented as cheaply as
// before), and the registry holds pointers to them, so attaching
// observability to a world never changes its event schedule, its RNG
// draws, or its hot-path allocation profile — the overhead-when-
// disabled contract DESIGN.md §3e pins down.
package obs

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"time"

	"packetradio/internal/sim"
)

// entry is one registered metric: a name plus a way to read it.
type entry struct {
	name string
	read func() float64
}

// Registry maps hierarchical dotted names (radio.145_01.collisions,
// host.gw1.ip.forwarded) onto live values. Registration stores a
// pointer or closure; reads always reflect the current value, so one
// registry built at world-construction time serves every later
// snapshot.
type Registry struct {
	entries []entry
	names   map[string]int

	// Sampling state: column layout frozen at StartSampling.
	cols []string
	rows []sampleRow
}

type sampleRow struct {
	t      sim.Time
	values []float64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{names: make(map[string]int)} }

func (r *Registry) add(name string, e entry) {
	if i, ok := r.names[name]; ok {
		r.entries[i] = e // re-registration replaces (world rebuilds)
		return
	}
	r.names[name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// RegisterUint64 registers a live view over an existing counter field.
func (r *Registry) RegisterUint64(name string, p *uint64) {
	r.add(name, entry{name: name, read: func() float64 { return float64(*p) }})
}

// RegisterDuration registers a duration field, read in seconds.
func (r *Registry) RegisterDuration(name string, p *time.Duration) {
	r.add(name, entry{name: name, read: func() float64 { return p.Seconds() }})
}

// RegisterFunc registers a computed metric.
func (r *Registry) RegisterFunc(name string, f func() float64) {
	r.add(name, entry{name: name, read: f})
}

// RegisterStruct registers every uint64 and time.Duration field of the
// struct p points at, under prefix.snake_case_field_name (durations in
// seconds). This is how the per-package stats structs — radio.TxStats,
// core.DriverStats, ipstack.Stats, dama.Stats and friends — migrate
// onto the registry wholesale: the structs stay the write-side (plain
// increments, no registry on the hot path), and one call here makes
// them the read-side. Reflection runs once at registration; reads go
// through captured field pointers.
func (r *Registry) RegisterStruct(prefix string, p any) {
	v := reflect.ValueOf(p)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		panic("obs: RegisterStruct wants a pointer to struct")
	}
	v = v.Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := prefix + "." + snakeCase(f.Name)
		switch {
		case f.Type.Kind() == reflect.Uint64:
			r.RegisterUint64(name, v.Field(i).Addr().Interface().(*uint64))
		case f.Type == reflect.TypeOf(time.Duration(0)):
			r.RegisterDuration(name, v.Field(i).Addr().Interface().(*time.Duration))
		}
	}
}

// snakeCase converts a Go field name (FramesSent, CSMADeferrals,
// IPQDrops) to a metric path segment (frames_sent, csma_deferrals,
// ipq_drops): an underscore lands before each upper→lower boundary
// that starts a new word, runs of capitals stay one word.
func snakeCase(s string) string {
	var b strings.Builder
	rs := []rune(s)
	for i, c := range rs {
		if c >= 'A' && c <= 'Z' {
			// New word at a lower→upper boundary, or at the last
			// capital of a run that is followed by a lowercase letter
			// (the "D" in "CSMADeferrals").
			prevLower := i > 0 && rs[i-1] >= 'a' && rs[i-1] <= 'z'
			runEnd := i > 0 && i+1 < len(rs) && rs[i-1] >= 'A' && rs[i-1] <= 'Z' && rs[i+1] >= 'a' && rs[i+1] <= 'z'
			if prevLower || runEnd {
				b.WriteByte('_')
			}
			b.WriteRune(c - 'A' + 'a')
			continue
		}
		b.WriteRune(c)
	}
	return b.String()
}

// Sample is one named value in a snapshot.
type Sample struct {
	Name  string
	Value float64
}

// Snapshot reads every metric, sorted by name.
func (r *Registry) Snapshot() []Sample {
	out := make([]Sample, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, Sample{Name: e.name, Value: e.read()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Value reads one metric by name.
func (r *Registry) Value(name string) (float64, bool) {
	i, ok := r.names[name]
	if !ok {
		return 0, false
	}
	return r.entries[i].read(), true
}

// Len reports the number of registered metrics.
func (r *Registry) Len() int { return len(r.entries) }

// trimFloat prints integers without a trailing ".000000".
func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6g", v)
}

// FormatValue renders a metric value for a text view such as
// World.Netstat, as WriteCSV does: integral values without a
// fractional part, everything else to six significant digits.
func FormatValue(v float64) string { return trimFloat(v) }

// StartSampling snapshots every metric each period of virtual time,
// accumulating a time series for WriteCSV. The column set freezes at
// the first call; metrics registered later are not sampled. This is
// the one registry feature that schedules events — leave it off for
// gated runs.
func (r *Registry) StartSampling(sched *sim.Scheduler, period time.Duration) *sim.Ticker {
	if r.cols == nil {
		snap := r.Snapshot()
		r.cols = make([]string, len(snap))
		for i, s := range snap {
			r.cols[i] = s.Name
		}
	}
	return sched.Every(period, func() { r.sampleRow(sched.Now()) })
}

func (r *Registry) sampleRow(t sim.Time) {
	row := sampleRow{t: t, values: make([]float64, len(r.cols))}
	for i, name := range r.cols {
		if v, ok := r.Value(name); ok {
			row.values[i] = v
		}
	}
	r.rows = append(r.rows, row)
}

// WriteCSV writes the sampled time series: a header of t_s plus every
// column name, then one row per sample tick.
func (r *Registry) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "t_s,%s\n", strings.Join(r.cols, ",")); err != nil {
		return err
	}
	for _, row := range r.rows {
		fmt.Fprintf(w, "%g", row.t.Seconds())
		for _, v := range row.values {
			fmt.Fprintf(w, ",%v", trimFloat(v))
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// Rows reports how many time-series samples have accumulated.
func (r *Registry) Rows() int { return len(r.rows) }
