package serial

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"packetradio/internal/kiss"
	"packetradio/internal/sim"
)

// The burst-equivalence regression: identical seeded traffic pushed
// through the seed per-byte event chain (the perByteEnd oracle) and
// through the burst path must produce identical KISS frame sequences,
// frame-completion timestamps, corruption counts, byte counters, drain
// edges and sampled backlogs.

// equivTrace is everything observable about one run of the scenario.
type equivTrace struct {
	frames     [][]byte
	frameAt    []sim.Time
	drainAt    []sim.Time
	samples    []int
	sent, rcvd uint64
	corrupted  uint64
	events     uint64
}

// equivWrite is one Write of a scenario: bytes written at an instant.
type equivWrite struct {
	at sim.Time
	p  []byte
}

// runEquivScenario writes 40 KISS frames of varied sizes (with bytes
// that need escaping) at irregular instants drawn from seed, some
// while the line is still draining.
func runEquivScenario(t *testing.T, seed int64, corruptRate float64, perByte bool) equivTrace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed + 1000))
	var writes []equivWrite
	at := time.Duration(0)
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(120)
		payload := make([]byte, n)
		for j := range payload {
			payload[j] = byte(rng.Intn(256)) // includes FEND/FESC
		}
		at += time.Duration(rng.Intn(900)) * time.Millisecond
		writes = append(writes, equivWrite{sim.Time(at), kiss.Encode(nil, 0, payload)})
	}
	return runEquiv(seed, corruptRate, writes, 45*time.Second, perByte)
}

// runEquiv pushes writes down a 1200-baud line, through the per-byte
// oracle or the burst path, and samples the sender's backlog every
// 613 ms from 37 ms until sampleEnd: instants off the byte grid, where
// both paths must report the same backlog.
func runEquiv(seed int64, corruptRate float64, writes []equivWrite, sampleEnd time.Duration, perByte bool) equivTrace {
	s := sim.NewScheduler(seed)
	a, b := NewLine(s, 1200)
	a.Line().CorruptRate = corruptRate
	write := a.Write
	if perByte {
		write = (&perByteEnd{End: a}).Write
	}

	var tr equivTrace
	dec := kiss.Decoder{Frame: func(f kiss.Frame) {
		tr.frames = append(tr.frames, append([]byte{f.Port<<4 | f.Command}, f.Payload...))
		tr.frameAt = append(tr.frameAt, s.Now())
	}}
	// The receiving end decodes per byte from the oracle and per run
	// from the burst path — the pairing the seed and today's driver
	// use.
	if perByte {
		b.SetReceiver(dec.PutByte)
	} else {
		b.SetRunReceiver(func(p []byte) { dec.Write(p) })
	}
	a.OnDrain = func() { tr.drainAt = append(tr.drainAt, s.Now()) }
	for _, w := range writes {
		s.At(w.at, func() { write(w.p) })
	}
	for ms := time.Duration(37); ms*time.Millisecond < sampleEnd; ms += 613 {
		s.At(sim.Time(ms*time.Millisecond), func() {
			tr.samples = append(tr.samples, a.QueueLen())
		})
	}
	s.Run()
	tr.sent, tr.rcvd, tr.corrupted = a.BytesSent, b.BytesReceived, b.Corrupted
	tr.events = s.Fired()
	return tr
}

func diffTraces(t *testing.T, label string, old, burst equivTrace) {
	t.Helper()
	if len(old.frames) != len(burst.frames) {
		t.Fatalf("%s: %d frames per-byte vs %d burst", label, len(old.frames), len(burst.frames))
	}
	for i := range old.frames {
		if !bytes.Equal(old.frames[i], burst.frames[i]) {
			t.Fatalf("%s: frame %d differs:\n per-byte %x\n burst    %x", label, i, old.frames[i], burst.frames[i])
		}
		if old.frameAt[i] != burst.frameAt[i] {
			t.Fatalf("%s: frame %d completed at %v per-byte vs %v burst", label, i, old.frameAt[i], burst.frameAt[i])
		}
	}
	if fmt.Sprint(old.drainAt) != fmt.Sprint(burst.drainAt) {
		t.Fatalf("%s: drain edges differ:\n per-byte %v\n burst    %v", label, old.drainAt, burst.drainAt)
	}
	if fmt.Sprint(old.samples) != fmt.Sprint(burst.samples) {
		t.Fatalf("%s: QueueLen samples differ:\n per-byte %v\n burst    %v", label, old.samples, burst.samples)
	}
	if old.sent != burst.sent || old.rcvd != burst.rcvd {
		t.Fatalf("%s: byte counters differ: sent %d/%d rcvd %d/%d", label, old.sent, burst.sent, old.rcvd, burst.rcvd)
	}
	if old.corrupted != burst.corrupted {
		t.Fatalf("%s: corruption counts differ: %d per-byte vs %d burst", label, old.corrupted, burst.corrupted)
	}
}

func TestBurstEquivalenceCleanLine(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		old := runEquivScenario(t, seed, 0, true)
		burst := runEquivScenario(t, seed, 0, false)
		diffTraces(t, fmt.Sprintf("seed %d", seed), old, burst)
		if old.events <= burst.events {
			t.Fatalf("seed %d: burst fired %d events vs %d per-byte — coalescing is not engaged",
				seed, burst.events, old.events)
		}
	}
}

func TestBurstEquivalenceCorruptedLine(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		old := runEquivScenario(t, seed, 0.002, true)
		burst := runEquivScenario(t, seed, 0.002, false)
		diffTraces(t, fmt.Sprintf("seed %d", seed), old, burst)
	}
	// And at a rate high enough that corruption certainly happened.
	old := runEquivScenario(t, 42, 0.05, true)
	burst := runEquivScenario(t, 42, 0.05, false)
	if old.corrupted == 0 {
		t.Fatal("corruption rate 0.05 produced no corrupted bytes")
	}
	diffTraces(t, "seed 42 heavy", old, burst)
}

// FuzzBurstSerial holds the burst path to the per-byte oracle on
// arbitrary write programs: each byte pair of prog is one write (a
// KISS frame with a seeded payload of the first byte's size, or an
// empty write when that byte is 0xff) placed the second byte's count of
// 7 ms steps after the previous one, so writes land on an idle line,
// mid-run and at the same instant; rate sets the per-byte corruption
// probability in thousandths. Frames, completion times, drain edges,
// backlog samples and counters must all agree.
func FuzzBurstSerial(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{10, 3, 120, 0, 1, 9, 0xff, 0, 40, 200})
	f.Add(int64(7), uint8(40), []byte{200, 0, 200, 1, 5, 0, 64, 2})
	f.Add(int64(42), uint8(255), []byte{0, 0, 0, 0, 255, 3, 17, 30})
	f.Fuzz(func(t *testing.T, seed int64, rate uint8, prog []byte) {
		if len(prog) > 64 {
			prog = prog[:64] // bound the program so one exec stays cheap
		}
		rng := rand.New(rand.NewSource(seed))
		var writes []equivWrite
		at := time.Duration(0)
		bytesOut := 0
		for i := 0; i+1 < len(prog); i += 2 {
			at += time.Duration(prog[i+1]) * 7 * time.Millisecond
			var p []byte
			if prog[i] != 0xff {
				payload := make([]byte, prog[i])
				rng.Read(payload) // includes FEND/FESC
				p = kiss.Encode(nil, 0, payload)
			}
			bytesOut += len(p)
			writes = append(writes, equivWrite{sim.Time(at), p})
		}
		// Sample until well past the last byte's wire time.
		end := at + time.Duration(bytesOut+1)*10*time.Second/1200 + time.Second
		rateF := float64(rate) / 1000
		old := runEquiv(seed, rateF, writes, end, true)
		burst := runEquiv(seed, rateF, writes, end, false)
		diffTraces(t, fmt.Sprintf("seed %d rate %v", seed, rateF), old, burst)
	})
}
