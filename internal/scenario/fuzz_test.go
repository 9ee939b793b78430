package scenario

import (
	"bytes"
	"os"
	"testing"
)

// FuzzScenarioParse feeds arbitrary bytes to Parse, as a hand-edited
// or truncated scenario file may carry: each call returns a scenario
// or an error and never panics, and an accepted scenario's canonical
// JSON must parse again to the same canonical JSON, so what Load
// accepts is what EmitJSON and the golden files record. Seeded with
// the committed suite.
func FuzzScenarioParse(f *testing.F) {
	for _, path := range suiteFiles(f) {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(busyScenario))
	f.Add([]byte(`{"name": "x"} {}`))
	f.Add([]byte(`{"name": "x", "run": {"duration": "1m"}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		sc, err := Parse(raw)
		if err != nil {
			return
		}
		out := sc.EmitJSON()
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("accepted scenario's EmitJSON does not parse: %v\n%s", err, out)
		}
		if out2 := again.EmitJSON(); !bytes.Equal(out, out2) {
			t.Fatalf("EmitJSON is not a fixed point:\nfirst  %s\nsecond %s", out, out2)
		}
	})
}
