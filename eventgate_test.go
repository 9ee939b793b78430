// The CI regression gate on the committed baselines. Every value in
// BENCH_simcore.json and BENCH_sockets.json is a pure function of the
// seed and the code — scheduler event counts, deliveries, allocations,
// virtual-clock times — so the virtual clock makes each file
// bit-deterministic across machines and it is held to exact equality.
// Any change that fires one extra event per ping or per CSMA
// transmission attempt fails here, naming each key that moved with
// its committed and its new value. The failing test also rewrites the
// file, so an intended change shows up in the diff for review; explain
// the delta in the change that commits it. Wall time belongs to
// prbench in bench/, which measures it with spreads.
package packetradio

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestEventGate holds BENCH_simcore.json to the report simCoreReport
// builds, field for field; TestWriteSimCoreBench checks what must hold
// within that report.
func TestEventGate(t *testing.T) {
	report, _ := simCoreReport()
	checkBaseline(t, "BENCH_simcore.json", report)
}

// checkBaseline compares report, marshalled as the committed file is,
// with the file at path. On any difference it rewrites the file and
// fails, naming every changed key.
func checkBaseline(t *testing.T, path string, report map[string]any) {
	t.Helper()
	got, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(path)
	if err == nil && bytes.Equal(got, want) {
		return
	}
	if err != nil {
		t.Errorf("%s: %v", path, err)
	}
	old, now := flatten(want), flatten(got)
	keys := make([]string, 0, len(now))
	for k := range now {
		keys = append(keys, k)
	}
	for k := range old {
		if _, ok := now[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	changed := 0
	for _, k := range keys {
		if old[k] != now[k] {
			changed++
			t.Errorf("%s: %s = %s, committed %s", path, k, orAbsent(now[k]), orAbsent(old[k]))
		}
	}
	if changed == 0 {
		t.Errorf("%s: same values, different bytes", path)
	}
	if err := os.WriteFile(path, got, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("%s rewritten with the new values: review the diff, and commit it only if the change is intended", path)
}

// flatten maps every leaf of a JSON document to its literal text,
// keyed by its dotted path. Bytes that do not parse flatten to nothing.
func flatten(doc []byte) map[string]string {
	out := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if dec.Decode(&v) != nil {
		return out
	}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		m, ok := v.(map[string]any)
		if !ok {
			b, _ := json.Marshal(v)
			out[prefix] = string(b)
			return
		}
		for k, e := range m {
			if prefix != "" {
				k = prefix + "." + k
			}
			walk(k, e)
		}
	}
	walk("", v)
	return out
}

func orAbsent(s string) string {
	if s == "" {
		return "(absent)"
	}
	return s
}
