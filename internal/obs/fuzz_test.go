package obs

import (
	"strings"
	"testing"

	"packetradio/internal/ip"
)

// FuzzParseFilter feeds ParseFilter arbitrary text, as a scenario file
// or a -filter flag may carry: it must compile or return an error that
// names the line and column it broke at, never panic, and a compiled
// filter must evaluate any datagram without panicking.
func FuzzParseFilter(f *testing.F) {
	for _, s := range []string{
		"", "icmp", "host 44.24.0.28", "src 128.95.1.2 and not port 23",
		"tcp or udp or rdm", "proto 89 or proto icmp", "not not dst 1.2.3.4",
		"port 1-2", "or icmp", "icmp\n  port\t23", "host", "proto 256",
		"icmp or", "icmp and", "and icmp", "icmp and or tcp", "icmp or and tcp",
	} {
		f.Add(s)
	}
	pkts := []*ip.Packet{
		nil,
		{Header: ip.Header{Src: ip.AddrFrom(44, 24, 0, 28), Dst: ip.AddrFrom(128, 95, 1, 2), Proto: ip.ProtoTCP}, Payload: []byte{0, 23, 4, 0}},
		{Header: ip.Header{Src: ip.AddrFrom(1, 2, 3, 4), Dst: ip.AddrFrom(1, 2, 3, 4), Proto: ip.ProtoUDP}, Payload: []byte{0}},
		{Header: ip.Header{Proto: ip.ProtoICMP, FragOff: 8}},
	}
	f.Fuzz(func(t *testing.T, s string) {
		flt, err := ParseFilter(s)
		if err != nil {
			if !strings.Contains(err.Error(), " line ") || !strings.Contains(err.Error(), " col ") {
				t.Fatalf("ParseFilter(%q) error carries no position: %v", s, err)
			}
			return
		}
		if flt.String() != s {
			t.Fatalf("String() = %q, want the source %q", flt.String(), s)
		}
		for _, p := range pkts {
			flt.Match(p)
		}
	})
}
