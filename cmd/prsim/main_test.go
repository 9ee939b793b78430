package main

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/world"
)

var errDiskFull = errors.New("disk full")

// failingFile takes ok bytes, then fails every write; Close fails when
// closeErr is set.
type failingFile struct {
	ok       int
	closeErr error
}

func (f *failingFile) Write(p []byte) (int, error) {
	if len(p) <= f.ok {
		f.ok -= len(p)
		return len(p), nil
	}
	n := f.ok
	f.ok = 0
	return n, errDiskFull
}

func (f *failingFile) Close() error { return f.closeErr }

// TestFinishReportsUnwritableFiles: an output file whose writes or
// close fail makes finish return that error, named with the file, while
// the other outputs are still written.
func TestFinishReportsUnwritableFiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		file failingFile
	}{
		{"trace", failingFile{}},
		{"metrics", failingFile{}},
		{"pcap", failingFile{ok: 24}}, // the header, then the first record fails
		{"trace", failingFile{ok: 1 << 30, closeErr: errDiskFull}},
	} {
		of := obsFlags{trace: "run.json", metrics: "run.csv", pcap: "gw.pcap"}
		bad := map[string]string{"trace": of.trace, "metrics": of.metrics, "pcap": of.pcap}[tc.name]
		var wrote []string
		of.create = func(name string) (io.WriteCloser, error) {
			if name == bad {
				f := tc.file
				return &f, nil
			}
			wrote = append(wrote, name)
			return &failingFile{ok: 1 << 30}, nil
		}
		s := world.NewSeattle(world.SeattleConfig{Seed: 1, NumPCs: 1})
		finish, err := of.attach(s.W, "uw-gw")
		if err != nil {
			t.Fatal(err)
		}
		s.PCs[0].Stack.Ping(world.InternetIP, 64, func(uint16, time.Duration, ip.Addr) {})
		s.W.Run(time.Minute)
		err = finish()
		if !errors.Is(err, errDiskFull) || !strings.Contains(err.Error(), bad) {
			t.Errorf("%s %+v: finish() = %v, want the write error naming %s", tc.name, tc.file, err, bad)
		}
		if len(wrote) != 2 {
			t.Errorf("%s %+v: wrote %v, want the other two outputs", tc.name, tc.file, wrote)
		}
	}
}

// TestFlagScenario pins the scenario the scale flags build, with the
// flags' defaults: prsim -stations 40 -channels 2 -dur 3m -mac dama
// -transport rdm is this canonical JSON, and 1001 stations break the
// schema's bound.
func TestFlagScenario(t *testing.T) {
	if err := flag.CommandLine.Parse(strings.Fields("-stations 40 -channels 2 -dur 3m -mac dama -transport rdm")); err != nil {
		t.Fatal(err)
	}
	sc, err := flagScenario()
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "name": "scale",
  "topology": {
    "base": "large",
    "stations": 40,
    "channels": 2,
    "bit_rate": 1200,
    "baud": 9600,
    "mac": "dama"
  },
  "traffic": {
    "transport": "rdm",
    "probe_interval": "1m0s"
  },
  "run": {
    "warmup": "30s",
    "duration": "3m0s"
  }
}
`
	if got := string(sc.EmitJSON()); got != want {
		t.Errorf("flag scenario:\n%s\nwant:\n%s", got, want)
	}
	*stations = 1001
	if _, err := flagScenario(); err == nil || !strings.Contains(err.Error(), "out of range 1..1000") {
		t.Errorf("1001 stations: err %v, want the schema's 1..1000 bound", err)
	}
}
