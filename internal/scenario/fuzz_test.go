package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioParse feeds arbitrary bytes to Parse (JSON) or ParseTOML,
// as a hand-edited or truncated scenario file may carry: each call
// returns a scenario or an error and never panics, and an accepted
// scenario's canonical JSON must parse again to the same canonical
// JSON, so what Load accepts is what EmitJSON and the golden files
// record. Seeded with the committed suite in both spellings.
func FuzzScenarioParse(f *testing.F) {
	for _, path := range suiteFiles(f) {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(filepath.Ext(path) == ".toml", raw)
	}
	f.Add(false, []byte(busyScenario))
	f.Add(false, []byte(`{"name": "x"} {}`))
	f.Add(true, []byte("name = \"x\"\n[run]\nduration = \"1m\"\n"))
	f.Fuzz(func(t *testing.T, toml bool, raw []byte) {
		parse := Parse
		if toml {
			parse = ParseTOML
		}
		sc, err := parse(raw)
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
