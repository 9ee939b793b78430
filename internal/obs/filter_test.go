package obs

import (
	"strings"
	"testing"
)

// TestFilterProtoNumerics pins numeric proto predicates against their
// keyword equivalents.
func TestFilterProtoNumerics(t *testing.T) {
	icmp := echoPacket("44.24.0.10", "128.95.1.2", 1, []byte{8, 0, 0, 0, 0, 1, 0, 1})
	ospf := echoPacket("44.24.0.10", "128.95.1.2", 89, nil)
	for _, c := range []struct {
		expr string
		want bool
	}{
		{"proto 1", true},
		{"proto icmp", true},
		{"proto 6", false},
		{"proto 89", false},
	} {
		f, err := ParseFilter(c.expr)
		if err != nil {
			t.Fatalf("ParseFilter(%q): %v", c.expr, err)
		}
		if got := f.Match(icmp); got != c.want {
			t.Errorf("%q on icmp: got %v, want %v", c.expr, got, c.want)
		}
	}
	f, err := ParseFilter("proto 89")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Match(ospf) {
		t.Error("proto 89 rejected a proto-89 packet")
	}
	if _, err := ParseFilter("proto 256"); err == nil {
		t.Error("proto 256 (out of uint8 range) parsed")
	}
	if _, err := ParseFilter("proto bogus"); err == nil {
		t.Error("proto bogus parsed")
	}
}

// TestFilterChainedNot pins double and triple negation.
func TestFilterChainedNot(t *testing.T) {
	icmp := echoPacket("44.24.0.10", "128.95.1.2", 1, []byte{8, 0, 0, 0, 0, 1, 0, 1})
	for _, c := range []struct {
		expr string
		want bool
	}{
		{"not icmp", false},
		{"not not icmp", true},
		{"not not not icmp", false},
		{"not not not not icmp", true},
	} {
		f, err := ParseFilter(c.expr)
		if err != nil {
			t.Fatalf("ParseFilter(%q): %v", c.expr, err)
		}
		if got := f.Match(icmp); got != c.want {
			t.Errorf("%q: got %v, want %v", c.expr, got, c.want)
		}
	}
	_, err := ParseFilter("icmp or not")
	if err == nil || !strings.Contains(err.Error(), `dangling "not"`) {
		t.Fatalf("dangling not: got %v", err)
	}
	if !strings.Contains(err.Error(), "line 1 col 9") {
		t.Fatalf("dangling not error lacks its position: %v", err)
	}
}

// TestFilterErrorsCarryPositions pins that malformed expressions fail
// with the offending word's line and column rather than panicking —
// port ranges especially, the classic tcpdump-ism the grammar rejects.
func TestFilterErrorsCarryPositions(t *testing.T) {
	cases := []struct {
		expr    string
		wantErr []string
	}{
		{"port 23-80", []string{"line 1 col 6", "ranges are not supported", `"port A or port B"`}},
		{"port 23:80", []string{"line 1 col 6", "ranges are not supported"}},
		{"port 23,80", []string{"line 1 col 6", "ranges are not supported"}},
		{"port x", []string{"line 1 col 6", `bad port "x"`}},
		{"port 70000", []string{"line 1 col 6", "bad port"}},
		{"port", []string{"line 1 col 1", "needs a number"}},
		{"icmp\nfrobnicate 7", []string{"line 2 col 1", `unknown keyword "frobnicate"`}},
		{"host nowhere", []string{"line 1 col 6"}},
		{"or icmp", []string{"line 1 col 1", "dangling"}},
		{"icmp or", []string{"line 1 col 6", `dangling "or"`}},
		{"icmp and", []string{"line 1 col 6", `dangling "and"`}},
		{"and icmp", []string{"line 1 col 1", `dangling "and"`}},
		{"icmp and or tcp", []string{"line 1 col 10", `dangling "or"`}},
		{"icmp or and tcp", []string{"line 1 col 9", `dangling "and"`}},
	}
	for _, c := range cases {
		_, err := ParseFilter(c.expr)
		if err == nil {
			t.Errorf("ParseFilter(%q) parsed, want error", c.expr)
			continue
		}
		for _, want := range c.wantErr {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ParseFilter(%q) error %q missing %q", c.expr, err, want)
			}
		}
	}
}
