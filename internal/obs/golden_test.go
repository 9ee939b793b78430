package obs_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/obs"
	"packetradio/internal/world"
)

var update = flag.Bool("update", false, "rewrite the golden pcap capture")

// TestGoldenSeattlePingCapture pins the pcap byte stream of the
// canonical scenario: pc1 pings june through the gateway, captured at
// the gateway's KISS seam with an icmp filter. The simulation is a
// pure function of the seed and pcap records carry virtual (not wall)
// timestamps, so the capture must be byte-for-byte reproducible — any
// drift in framing, timing, or the pcap encoding itself fails here.
// Regenerate with: go test ./internal/obs -run Golden -update
func TestGoldenSeattlePingCapture(t *testing.T) {
	capture := func() []byte {
		s := world.NewSeattle(world.SeattleConfig{Seed: 1})
		var buf bytes.Buffer
		flt, err := obs.ParseFilter("icmp")
		if err != nil {
			t.Fatal(err)
		}
		pw, err := s.W.CapturePort("uw-gw", "pr0", &buf, flt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			s.PCs[0].Stack.Ping(world.InternetIP, 64, nil)
			s.W.Run(time.Minute)
		}
		if pw.Err() != nil {
			t.Fatal(pw.Err())
		}
		if pw.Count() == 0 {
			t.Fatal("capture saw no frames")
		}
		return buf.Bytes()
	}

	got := capture()
	golden := filepath.Join("testdata", "seattle_ping.pcap")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("capture drifted from golden file: got %d bytes, want %d (regenerate with -update only if the change is intended)", len(got), len(want))
	}

	// Determinism double-check: a second identical world produces the
	// identical byte stream.
	if again := capture(); !bytes.Equal(again, got) {
		t.Fatal("two identical worlds produced different captures")
	}

	// The capture must decode with our own reader: right link type,
	// ping request + reply per round at the gateway seam.
	lt, pkts, err := obs.ReadPcap(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if lt != obs.LinkTypeAX25KISS {
		t.Fatalf("linktype = %d, want %d", lt, obs.LinkTypeAX25KISS)
	}
	if len(pkts) != 4 {
		t.Fatalf("capture holds %d icmp frames, want 4 (2 pings x req+reply)", len(pkts))
	}
	for i, p := range pkts {
		if len(p.Data) == 0 || p.Data[0] != 0 {
			t.Fatalf("record %d is not a KISS data frame: % x", i, p.Data)
		}
		f, err := ax25.Decode(p.Data[1:])
		if err != nil {
			t.Fatalf("record %d does not decode as AX.25: %v", i, err)
		}
		if len(f.Info) == 0 {
			t.Fatalf("record %d has no IP payload", i)
		}
	}
	if pkts[0].T == 0 || pkts[2].T <= pkts[0].T {
		t.Fatalf("timestamps not virtual-monotonic: %v then %v", pkts[0].T, pkts[2].T)
	}
}
