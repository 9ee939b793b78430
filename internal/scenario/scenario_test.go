package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files from the committed scenarios")

// suiteDir is the committed scenario suite the golden and gate tests
// walk.
const suiteDir = "../../examples/scenarios"

func suiteFiles(t testing.TB) []string {
	t.Helper()
	var files []string
	for _, ext := range []string{"*.json", "*.toml"} {
		m, err := filepath.Glob(filepath.Join(suiteDir, ext))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 4 {
		t.Fatalf("found %d scenarios in %s, want the committed suite", len(files), suiteDir)
	}
	return files
}

// TestGoldenRoundTrip pins the normalized form of every committed
// scenario: parse -> emit must match the golden file byte for byte,
// and re-parsing the emission must be a fixed point. A diff here means
// either the scenario changed (rerun with -update) or a default
// changed out from under every existing file (think hard, then
// -update).
func TestGoldenRoundTrip(t *testing.T) {
	for _, path := range suiteFiles(t) {
		sc, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		emitted := sc.EmitJSON()

		golden := filepath.Join("testdata", "golden", sc.Name+".json")
		if *update {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, emitted, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s: %v (run `go test ./internal/scenario -update`)", path, err)
		}
		if !bytes.Equal(emitted, want) {
			t.Errorf("%s: normalized emission differs from %s\n--- emitted\n%s", path, golden, emitted)
		}

		again, err := Parse(emitted)
		if err != nil {
			t.Fatalf("%s: re-parse of emission failed: %v", path, err)
		}
		if !bytes.Equal(again.EmitJSON(), emitted) {
			t.Errorf("%s: emit -> parse -> emit is not a fixed point", path)
		}
	}
}

// TestTOMLMatchesJSON checks the two spellings of one scenario
// normalize identically.
func TestTOMLMatchesJSON(t *testing.T) {
	jsonSrc := []byte(`{
		"name": "spellings",
		"topology": {"stations": 4, "channels": 1},
		"traffic": {"probe_interval": "30s", "pairs": [{"from": "st0", "to": "st1", "interval": "45s"}]},
		"failures": [{"kind": "flap", "a": "gw1", "b": "st0", "from": "40s", "down_for": "5s", "up_for": "10s"}],
		"run": {"duration": "60s"}
	}`)
	tomlSrc := []byte(`
name = "spellings"

[topology]
stations = 4
channels = 1

[traffic]
probe_interval = "30s"

[[traffic.pairs]]
from = "st0"
to = "st1"
interval = "45s"

[[failures]]
kind = "flap"
a = "gw1"
b = "st0"
from = "40s"
down_for = "5s"
up_for = "10s"

[run]
duration = "60s"
`)
	a, err := Parse(jsonSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseTOML(tomlSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.EmitJSON(), b.EmitJSON()) {
		t.Fatalf("TOML and JSON spellings normalize differently:\n%s\nvs\n%s", a.EmitJSON(), b.EmitJSON())
	}
}

// TestNormalizeDefaults spot-checks the documented defaults.
func TestNormalizeDefaults(t *testing.T) {
	sc, err := Parse([]byte(`{"name": "defaults", "run": {"duration": "60s"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Topology.Base != "large" || sc.Topology.Stations != 10 || sc.Topology.Channels != 1 {
		t.Fatalf("topology defaults: %+v", sc.Topology)
	}
	if sc.Topology.BitRate != 1200 || sc.Topology.Baud != 9600 || sc.Topology.MAC != "csma" {
		t.Fatalf("rate/mac defaults: %+v", sc.Topology)
	}
	if sc.Traffic.Transport != "icmp" {
		t.Fatalf("transport default: %q", sc.Traffic.Transport)
	}
	if sc.Run.Warmup.D() != 30*time.Second {
		t.Fatalf("warmup default: %v", sc.Run.Warmup)
	}
	if sc.End() != 90*time.Second {
		t.Fatalf("end: %v", sc.End())
	}
}

// TestValidationErrors feeds broken scenarios through Parse and checks
// each is rejected with a message naming the offending field.
func TestValidationErrors(t *testing.T) {
	base := func(mutations string) []byte {
		return []byte(`{"name": "bad", ` + mutations + `"run": {"duration": "60s"}}`)
	}
	cases := []struct {
		name string
		src  []byte
		want string
	}{
		{"unknown field", []byte(`{"name": "x", "run": {"duration": "60s"}, "probe_intervl": "10s"}`), "probe_intervl"},
		{"trailing data", []byte(`{"name": "x", "run": {"duration": "60s"}} {}`), "trailing data"},
		{"negative duration", base(`"run2": 1, `), "run2"}, // unknown field wins, but keeps the helper honest
		{"missing duration", []byte(`{"name": "x", "run": {}}`), "run.duration"},
		{"bad base", []byte(`{"name": "x", "topology": {"base": "mars"}, "run": {"duration": "60s"}}`), "topology.base"},
		{"unknown host", base(`"traffic": {"pairs": [{"from": "st99", "to": "st0", "interval": "5s"}]}, `), "st99"},
		{"pair self", base(`"traffic": {"pairs": [{"from": "st1", "to": "st1", "interval": "5s"}]}, `), "from and to"},
		{"cut across channels", []byte(`{"name": "x", "topology": {"stations": 4, "channels": 2, "cuts": [{"a": "st0", "b": "st1"}]}, "run": {"duration": "60s"}}`), "share no radio channel"},
		{"cut needs radio", base(`"topology": {"cuts": [{"a": "st0", "b": "inet"}]}, `), "radio hosts"},
		{"flap missing dwell", base(`"failures": [{"kind": "flap", "a": "gw1", "b": "st0", "down_for": "5s"}], `), "up_for"},
		{"flap stray channel", base(`"failures": [{"kind": "flap", "a": "gw1", "b": "st0", "down_for": "5s", "up_for": "5s", "channel": 1}], `), "not a flap field"},
		{"partition channel range", base(`"failures": [{"kind": "partition", "channel": 9, "from": "10s", "until": "20s"}], `), "out of range"},
		{"churn needs dama", base(`"failures": [{"kind": "master_churn", "channel": 1, "every": "30s", "down_for": "5s"}], `), "dama"},
		{"churn dwell vs period", []byte(`{"name": "x", "topology": {"mac": "dama"}, "failures": [{"kind": "master_churn", "channel": 1, "every": "10s", "down_for": "10s"}], "run": {"duration": "60s"}}`), "not below every"},
		{"unknown failure kind", base(`"failures": [{"kind": "meteor"}], `), "unknown kind"},
		{"failure beyond end", base(`"failures": [{"kind": "partition", "channel": 1, "from": "10s", "until": "10m"}], `), "beyond the run end"},
		{"diurnal needs baseline", base(`"traffic": {"diurnal": [{"at": "10s", "rate": 2}]}, `), "probe_interval"},
		{"diurnal order", base(`"traffic": {"probe_interval": "10s", "diurnal": [{"at": "20s", "rate": 2}, {"at": "10s", "rate": 1}]}, `), "ascend"},
		{"flash bounds", base(`"traffic": {"flash_crowds": [{"at": "10s", "first": 8, "stations": 5}]}, `), "outside the topology"},
		{"seattle transport", []byte(`{"name": "x", "topology": {"base": "seattle"}, "traffic": {"transport": "tcp", "probe_interval": "30s"}, "run": {"duration": "60s"}}`), "icmp"},
		{"seattle channels", []byte(`{"name": "x", "topology": {"base": "seattle", "channels": 2}, "run": {"duration": "60s"}}`), "one channel"},
		{"gate range", base(`"gates": {"delivery": {"median_min": 1.5}}, `), "outside 0..1"},
		{"whitespace name", []byte(`{"name": "two words", "run": {"duration": "60s"}}`), "whitespace"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%s: accepted, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestValidationAggregates checks one file reports all its problems at
// once.
func TestValidationAggregates(t *testing.T) {
	_, err := Parse([]byte(`{
		"name": "multi",
		"topology": {"bit_rate": 10, "baud": 10},
		"run": {}
	}`))
	if err == nil {
		t.Fatal("accepted")
	}
	ve, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("got %T (%v), want *ValidationError", err, err)
	}
	if len(ve.Problems) != 3 {
		t.Fatalf("got %d problems (%v), want 3 (bit_rate, baud, duration)", len(ve.Problems), ve.Problems)
	}
}
