// Parsing and re-emitting scenario files. Scenarios are JSON, decoded
// strictly: unknown fields are errors — a typoed "probe_intervl" must
// not silently become an idle scenario.

package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Load reads, parses, normalizes and validates a .json scenario file.
func Load(path string) (*Scenario, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if ext := filepath.Ext(path); ext != ".json" {
		return nil, fmt.Errorf("%s: unknown scenario extension %q (want .json)", path, ext)
	}
	sc, err := Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Parse decodes a JSON scenario, fills defaults and validates.
func Parse(raw []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	sc := &Scenario{}
	if err := dec.Decode(sc); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	// A second object after the first is a concatenation mistake.
	if dec.More() {
		return nil, fmt.Errorf("parse: trailing data after the scenario object")
	}
	sc.Normalize()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// EmitJSON renders the scenario as canonical, normalized JSON — what
// the golden round-trip tests compare. Parse(EmitJSON(sc)) reproduces
// sc exactly.
func (sc *Scenario) EmitJSON() []byte {
	buf, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		// Scenario contains only marshalable types; this is unreachable.
		panic(err)
	}
	return append(buf, '\n')
}

// Summary is the one-line header reports print.
func (sc *Scenario) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s base, %d stations", sc.Name, sc.Topology.Base, sc.Topology.Stations)
	if sc.Topology.Base == "large" {
		fmt.Fprintf(&b, " / %d channels", sc.Topology.Channels)
	}
	fmt.Fprintf(&b, ", %d bps, mac=%s, transport=%s, %v+%v run",
		sc.Topology.BitRate, sc.Topology.MAC, sc.Traffic.Transport,
		sc.Run.Warmup, sc.Run.Duration)
	return b.String()
}
