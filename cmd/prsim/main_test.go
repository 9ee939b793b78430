package main

import (
	"errors"
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
