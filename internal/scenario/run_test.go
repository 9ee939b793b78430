package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"packetradio/internal/sim"
)

// busyScenario exercises every moving part at once: multi-channel
// topology with a starting cut, diurnal-shaped baseline, a flash
// crowd, pair flows (station-to-station across the backbone and
// inet-sourced), and all three failure kinds would not fit (churn
// needs dama), so it carries a flap and a partition.
const busyScenario = `{
	"name": "busy",
	"topology": {
		"stations": 8,
		"channels": 2,
		"cuts": [{"a": "st0", "b": "st2"}]
	},
	"traffic": {
		"probe_interval": "30s",
		"diurnal": [{"at": "60s", "rate": 2.0}],
		"flash_crowds": [{"at": "45s", "first": 0, "stations": 4, "probes": 2, "spacing": "1s", "stagger": "250ms"}],
		"pairs": [
			{"from": "st1", "to": "st2", "interval": "40s", "start": "20s"},
			{"from": "inet", "to": "st3", "interval": "50s", "start": "25s"}
		]
	},
	"failures": [
		{"kind": "flap", "a": "gw1", "b": "st0", "from": "50s", "down_for": "10s", "up_for": "20s"},
		{"kind": "partition", "channel": 2, "from": "70s", "until": "100s"}
	],
	"run": {"warmup": "30s", "duration": "120s"}
}`

// TestDeterminismSameEngine reruns one (scenario, seed) pair and
// expects identical stats, the order of the RTT series included — the
// basic reproducibility contract.
func TestDeterminismSameEngine(t *testing.T) {
	sc, err := Parse([]byte(busyScenario))
	if err != nil {
		t.Fatal(err)
	}
	run := func() RunStats {
		r, err := Compile(sc, 3)
		if err != nil {
			t.Fatal(err)
		}
		return r.Run()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs differ: %+v vs %+v", a, b)
	}
}

// TestSeattleCompile runs a seattle-base scenario end to end.
func TestSeattleCompile(t *testing.T) {
	src := []byte(`{
		"name": "s",
		"topology": {"base": "seattle", "stations": 2},
		"traffic": {"probe_interval": "45s"},
		"run": {"duration": "90s"}
	}`)
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Compile(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Run()
	if st.Sent == 0 || st.Replies == 0 {
		t.Fatalf("no seattle traffic: %+v", st)
	}
}

// TestRegistryRollupsAreLive samples the scenario.* roll-ups in the
// middle of one W.Run on the large base: probes go out all through the
// window, so scenario.sent must rise between two samples and agree
// with the run's totals at its end.
func TestRegistryRollupsAreLive(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "live",
		"topology": {"stations": 4, "channels": 1},
		"traffic": {"probe_interval": "20s"},
		"run": {"warmup": "30s", "duration": "120s"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Compile(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := r.W.Registry()
	var samples []float64
	for _, at := range []time.Duration{60 * time.Second, 120 * time.Second} {
		r.W.Sched.At(sim.Time(at), func() {
			v, _ := reg.Value("scenario.sent")
			samples = append(samples, v)
		})
	}
	st := r.Run()
	if len(samples) != 2 || samples[1] <= samples[0] {
		t.Fatalf("scenario.sent sampled %v at 60 s and 120 s of one run, want it rising", samples)
	}
	if v, _ := reg.Value("scenario.sent"); v != float64(st.Sent) {
		t.Fatalf("scenario.sent reads %v after the run, the run sent %d", v, st.Sent)
	}
	if v, _ := reg.Value("scenario.replies"); v != float64(st.Replies) {
		t.Fatalf("scenario.replies reads %v after the run, the run got %d", v, st.Replies)
	}
}

// TestEvaluateGates runs a tiny gated scenario and checks both a pass
// and an impossible bound failing.
func TestEvaluateGates(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "gated",
		"topology": {"stations": 4, "channels": 1},
		"traffic": {"probe_interval": "30s"},
		"run": {"duration": "90s"},
		"gates": {"seeds": 3, "delivery": {"median_min": 0.2}, "rtt": {"p95_max": "2m"}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Evaluate(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stats) != 3 {
		t.Fatalf("seeds: got %d runs, want gates.seeds=3", len(rep.Stats))
	}
	if !rep.Pass() {
		t.Fatalf("generous gates failed:\n%s", rep.Report())
	}
	if !strings.Contains(rep.Report(), "gates: PASS") {
		t.Fatalf("report missing verdict:\n%s", rep.Report())
	}

	sc.Gates.Delivery.MedianMin = 1.01 // unreachable: delivery is a ratio
	rep2, err := Evaluate(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Pass() {
		t.Fatal("impossible gate passed")
	}
}

// TestSuiteGates evaluates every committed scenario against its own
// gates — the same check CI's scenario job runs, kept in-tree so a
// band regression fails locally first. The whole suite is sub-second,
// so this stays in the default test run.
func TestSuiteGates(t *testing.T) {
	for _, path := range suiteFiles(t) {
		sc, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Gates == nil {
			t.Errorf("%s: committed scenarios must declare gates", path)
			continue
		}
		rep, err := Evaluate(sc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass() {
			t.Errorf("%s failed its gates:\n%s", path, rep.Report())
		}
	}
}
