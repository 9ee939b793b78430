package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// smokeSeconds runs each workload at about 1/200 of a default run.
const smokeSeconds = 10.0 / 200

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload twice at 1/200 length, the second time
// traced: the digests must match, every metric must be well named and
// carry a unit, and the obs-free workloads must show no obs cost.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range Workloads {
		a := Run(w, Config{Seed: 1, Seconds: smokeSeconds})
		b := Run(w, Config{Seed: 1, Seconds: smokeSeconds, Trace: true})
		for _, r := range []*Result{a, b} {
			if !r.Correct() {
				t.Errorf("%s: checks failed: %v", w.Name, r.Failures)
			}
			if r.Attempted == 0 || r.Failed != 0 {
				t.Errorf("%s: attempted %d, failed %d", w.Name, r.Attempted, r.Failed)
			}
			for _, m := range r.Metrics {
				if !metricName.MatchString(m.Name) || m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: bad metric %+v", w.Name, m)
				}
			}
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: digests differ between runs:\n  %s\n  %s", w.Name, a.Digest, b.Digest)
		}
		if !strings.HasSuffix(w.Name, "-obs") {
			for _, name := range []string{"obs.cpu_share", "obs.heap_mb"} {
				if v, _ := b.Metric(name); v != 0 {
					t.Errorf("%s: %s = %v on a world without obs taps", w.Name, name, v)
				}
			}
		}
	}
	t.Logf("smoke runs took %v", time.Since(start))
}

// TestSpecMatchesOutput holds BENCHMARK.json to the metrics the
// benchmark prints: end_to_end is what an untraced run reports, and
// per_layer is the rest of a traced run's metrics, each with its unit.
func TestSpecMatchesOutput(t *testing.T) {
	spec, err := ReadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	units := func(ms []SpecMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e, layers := units(spec.EndToEnd), units(spec.PerLayer)
	if len(e2e) != len(EndToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(e2e), len(EndToEnd))
	}
	for _, m := range EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q reported", m.Name, e2e[m.Name], m.Unit)
		}
	}
	w, _ := Lookup("seattle-ping")
	r := Run(w, Config{Seed: 1, Seconds: 0.001, Trace: true})
	seen := 0
	for _, m := range r.Metrics {
		if _, ok := e2e[m.Name]; ok {
			continue
		}
		seen++
		if u, ok := layers[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer %s (%s) is not in BENCHMARK.json with that unit", m.Name, m.Unit)
		}
	}
	if seen != len(layers) {
		t.Errorf("traced run reports %d per-layer metrics, BENCHMARK.json lists %d", seen, len(layers))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
	q1, med, q3 = Quartiles([]float64{5, 1})
	if q1 != 0 || med != 3 || q3 != 6 {
		t.Errorf("quartiles %v %v %v, want 0 3 6", q1, med, q3)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500e3}, {0.99, 990e3}, {1, 1000e3}} {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > c.want/100 {
			t.Errorf("q%.2f = %v, want %v within 1%%", c.q, got, c.want)
		}
	}
	if h.Count() != 1000 {
		t.Errorf("count %d", h.Count())
	}
	if allocs := testing.AllocsPerRun(100, func() { h.Record(time.Millisecond) }); allocs != 0 {
		t.Errorf("Record allocates %v objects", allocs)
	}
}

func TestAttributeRules(t *testing.T) {
	const ip = internalPrefix
	samples := []cpuSample{
		{ns: 1, stack: []string{"runtime.mallocgc", "runtime.newobject", ip + "ax25.Decode", ip + "sim.(*Scheduler).Step"}},
		{ns: 2, stack: []string{"runtime.memmove", ip + "ax25.Decode"}},
		{ns: 4, stack: []string{"container/heap.down", "container/heap.Pop", ip + "sim.(*Scheduler).Step"}},
		{ns: 8, stack: []string{"runtime.chanrecv1", ip + "sim.(*Group).runWindow.func1", "runtime.goexit"}},
		{ns: 16, stack: []string{"sort.Slice", ip + "sim.(*Shard).drain", ip + "sim.(*Group).RunUntil"}},
		{ns: 32, stack: []string{ip + "ax25.Decode", ip + "obs.(*TraceLane).AirRx", ip + "world.(*World).AttachTracer.func1"}, phase: "setup"},
		{ns: 64, stack: []string{"runtime._System"}},
		{ns: 128, stack: []string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}},
	}
	a := attribute(samples)
	want := map[string]int64{
		"runtime.alloc": 1, "ax25": 2 + 32, "sim.sched": 4, "runtime.sched": 8,
		"sim.group": 16, "unattributed": 64, "runtime.gc": 128,
	}
	for layer, ns := range want {
		if a.Self[layer] != ns {
			t.Errorf("self[%s] = %d, want %d", layer, a.Self[layer], ns)
		}
	}
	if a.Total != 255 || a.Obs != 32 || a.Group != 8+16 || a.Setup != 32 {
		t.Errorf("total %d obs %d group %d setup %d, want 255 32 24 32", a.Total, a.Obs, a.Group, a.Setup)
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "setup"), func(context.Context) { spin(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			if fn == "packetradio/bench.spin" && s.phase == "setup" && s.ns > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no labelled sample in bench.spin among %d samples", len(samples))
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &Spec{EndToEnd: []SpecMetric{{Name: "rate", Better: "higher", Bound: 0.10}}}
	runs := func(n int, base, step float64) []Record {
		var out []Record
		for i := 0; i < n; i++ {
			out = append(out, Record{Workload: "w", Metrics: map[string]RecordItem{
				"rate": {Value: base + step*float64(i%5)}}})
		}
		return out
	}
	base := runs(10, 100, 1)
	cases := []struct {
		name string
		head []Record
		want string
	}{
		{"same", runs(10, 100, 1), "within-noise"},
		{"faster", runs(10, 120, 1), "faster"},
		{"slower", runs(10, 80, 1), "slower"},
		{"few pairs", runs(5, 120, 1), "unresolved"},
	}
	for _, c := range cases {
		v := Compare(base, c.head, spec)
		if len(v) != 1 || v[0].Label != c.want {
			t.Errorf("%s: got %+v, want %s", c.name, v, c.want)
		}
	}
	noisy := runs(10, 100, 10) // IQR ≈ 20% of the median, wider than the bound
	if v := Compare(noisy, runs(10, 101, 10), spec); v[0].Label != "unresolved" {
		t.Errorf("noisy base: got %s, want unresolved", v[0].Label)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := &Result{Workload: "w", Seed: 3, Metrics: []Metric{{Name: "rate", Value: 1.5, Unit: "1/s"}}}
	b, err := json.Marshal(NewRecord(r))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := readRecords(strings.NewReader(string(b) + "\n" + `{"correct":true,"attempted":1,"failed":0,"metrics":{}}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seed != 3 || recs[0].Metrics["rate"].Value != 1.5 {
		t.Fatalf("round trip gave %+v", recs)
	}
}
