package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenariosDoc extracts every fenced ```json block from
// SCENARIOS.md and the README and runs it through the real parser:
// the format reference may not drift from the schema. Fragments that
// are not complete scenarios must use a different fence info string
// (or none).
func TestScenariosDoc(t *testing.T) {
	checked := 0
	for _, doc := range []string{"../../SCENARIOS.md", "../../README.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		checked += checkDocFences(t, filepath.Base(doc), string(src))
	}
	if checked < 3 {
		t.Fatalf("only %d fenced examples found — the cookbook should hold at least 3", checked)
	}
}

// checkDocFences parses each json fence in one document and reports
// how many it checked.
func checkDocFences(t *testing.T, doc, src string) int {
	checked := 0
	for _, f := range mdFences(src) {
		if f.lang != "json" {
			continue
		}
		name := fmt.Sprintf("%s:%d (```%s)", doc, f.line, f.lang)
		sc, err := Parse([]byte(f.body))
		if err != nil {
			t.Errorf("%s does not parse: %v", name, err)
			continue
		}
		if sc.Name == "" {
			t.Errorf("%s: example scenarios should carry a name", name)
		}
		checked++
	}
	return checked
}

// fence is one fenced code block: its info string, body, and the line
// the opening fence sits on.
type fence struct {
	lang string
	body string
	line int
}

// mdFences scans markdown for triple-backtick fences.
func mdFences(src string) []fence {
	var out []fence
	lines := strings.Split(src, "\n")
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "```") {
			continue
		}
		lang := strings.TrimSpace(strings.TrimPrefix(lines[i], "```"))
		start := i + 1
		j := start
		for j < len(lines) && !strings.HasPrefix(lines[j], "```") {
			j++
		}
		out = append(out, fence{lang: lang, body: strings.Join(lines[start:j], "\n") + "\n", line: i + 1})
		i = j
	}
	return out
}
