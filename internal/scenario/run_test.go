package scenario

import (
	"reflect"
	"strings"
	"testing"
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
