package serial

import (
	"bytes"
	"testing"
	"time"

	"packetradio/internal/sim"
)

func TestBytesArriveInOrder(t *testing.T) {
	s := sim.NewScheduler(1)
	a, b := NewLine(s, 9600)
	var got []byte
	b.SetReceiver(func(c byte) { got = append(got, c) })
	msg := []byte("the quick brown fox")
	a.Write(msg)
	s.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q, want %q", got, msg)
	}
}

func TestPacingMatchesBaudRate(t *testing.T) {
	s := sim.NewScheduler(1)
	a, b := NewLine(s, 1200) // 1200 baud -> 120 bytes/s -> 8.33ms per byte
	var times []sim.Time
	b.SetReceiver(func(byte) { times = append(times, s.Now()) })
	a.Write(make([]byte, 12)) // 12 bytes = 120 bits = 100ms
	s.Run()
	if len(times) != 12 {
		t.Fatalf("delivered %d bytes, want 12", len(times))
	}
	last := times[len(times)-1].Duration()
	// Per-byte times are rounded to nanoseconds, so allow the
	// accumulated sub-nanosecond truncation (under 1ns per byte).
	if diff := (100*time.Millisecond - last); diff < 0 || diff > 12*time.Nanosecond {
		t.Fatalf("last byte at %v, want 100ms within 12ns", last)
	}
}

func TestFullDuplexIndependentDirections(t *testing.T) {
	s := sim.NewScheduler(1)
	a, b := NewLine(s, 9600)
	var fromA, fromB []byte
	b.SetReceiver(func(c byte) { fromA = append(fromA, c) })
	a.SetReceiver(func(c byte) { fromB = append(fromB, c) })
	a.Write([]byte("aaaa"))
	b.Write([]byte("bbbb"))
	s.Run()
	if string(fromA) != "aaaa" || string(fromB) != "bbbb" {
		t.Fatalf("fromA=%q fromB=%q", fromA, fromB)
	}
}

func TestBackToBackWritesCoalesce(t *testing.T) {
	s := sim.NewScheduler(1)
	a, b := NewLine(s, 9600)
	var got []byte
	b.SetReceiver(func(c byte) { got = append(got, c) })
	a.Write([]byte("first "))
	a.Write([]byte("second"))
	s.Run()
	if string(got) != "first second" {
		t.Fatalf("got %q", got)
	}
	if a.BytesSent != 12 || b.BytesReceived != 12 {
		t.Fatalf("stats: sent=%d rcvd=%d", a.BytesSent, b.BytesReceived)
	}
}

func TestWriteWhileDrainingExtendsQueue(t *testing.T) {
	s := sim.NewScheduler(1)
	a, b := NewLine(s, 9600)
	var got []byte
	b.SetReceiver(func(c byte) {
		got = append(got, c)
		if len(got) == 1 {
			a.Write([]byte("!"))
		}
	})
	a.Write([]byte("xy"))
	s.Run()
	if string(got) != "xy!" {
		t.Fatalf("got %q, want xy!", got)
	}
}

func TestQueueLenAndDrained(t *testing.T) {
	s := sim.NewScheduler(1)
	a, b := NewLine(s, 9600)
	b.SetReceiver(func(byte) {})
	a.Write(make([]byte, 10))
	if a.QueueLen() != 10 || a.Drained() {
		t.Fatalf("QueueLen=%d Drained=%v", a.QueueLen(), a.Drained())
	}
	s.RunFor(a.line.ByteTime() * 5)
	if a.QueueLen() != 5 {
		t.Fatalf("QueueLen=%d after 5 byte times, want 5", a.QueueLen())
	}
	s.Run()
	if !a.Drained() {
		t.Fatal("not drained after Run")
	}
}

func TestNoReceiverDropsSilently(t *testing.T) {
	s := sim.NewScheduler(1)
	a, b := NewLine(s, 9600)
	a.Write([]byte("lost"))
	s.Run()
	if b.BytesReceived != 4 {
		t.Fatalf("BytesReceived=%d, want 4 (counted even when dropped)", b.BytesReceived)
	}
}

func TestCorruptionInjection(t *testing.T) {
	s := sim.NewScheduler(42)
	a, b := NewLine(s, 9600)
	a.line.CorruptRate = 0.5
	var got []byte
	b.SetReceiver(func(c byte) { got = append(got, c) })
	msg := make([]byte, 1000)
	a.Write(msg)
	s.Run()
	if b.Corrupted == 0 {
		t.Fatal("no corruption at rate 0.5")
	}
	diff := 0
	for i := range got {
		if got[i] != msg[i] {
			diff++
		}
	}
	if uint64(diff) != b.Corrupted {
		t.Fatalf("corrupted count %d but %d bytes differ", b.Corrupted, diff)
	}
}

// --- Burst-mode semantics ------------------------------------------------

func TestRunReceiverGetsWholeWrites(t *testing.T) {
	s := sim.NewScheduler(1)
	a, b := NewLine(s, 9600)
	var runs [][]byte
	var at []sim.Time
	b.SetRunReceiver(func(p []byte) {
		runs = append(runs, append([]byte(nil), p...))
		at = append(at, s.Now())
	})
	a.Write([]byte("first"))
	a.Write([]byte("second!"))
	s.Run()
	if len(runs) != 2 || string(runs[0]) != "first" || string(runs[1]) != "second!" {
		t.Fatalf("runs = %q", runs)
	}
	bt := a.line.ByteTime()
	if want := sim.Time(5 * bt); at[0] != want {
		t.Fatalf("run 1 delivered at %v, want %v (last byte's wire time)", at[0], want)
	}
	if want := sim.Time(12 * bt); at[1] != want {
		t.Fatalf("run 2 delivered at %v, want %v (continuous pacing)", at[1], want)
	}
}

func TestRunReceiverTakesPrecedenceOverByteReceiver(t *testing.T) {
	s := sim.NewScheduler(1)
	a, b := NewLine(s, 9600)
	byteCalls := 0
	b.SetReceiver(func(byte) { byteCalls++ })
	var got []byte
	b.SetRunReceiver(func(p []byte) { got = append(got, p...) })
	a.Write([]byte("xyz"))
	s.Run()
	if byteCalls != 0 || string(got) != "xyz" {
		t.Fatalf("byteCalls=%d got=%q", byteCalls, got)
	}
}

// QueueLen and Drained must interpolate the drain schedule byte-exactly
// between run events — E2's gateway-backlog probe and the driver's
// output-queue bound both sample them at arbitrary instants.
func TestQueueLenInterpolatesAcrossRuns(t *testing.T) {
	s := sim.NewScheduler(1)
	a, b := NewLine(s, 1200)
	b.SetReceiver(func(byte) {})
	bt := a.line.ByteTime()
	a.Write(make([]byte, 4))
	a.Write(make([]byte, 3)) // second run: bytes 5..7
	for k := 0; k <= 7; k++ {
		s.RunUntil(sim.Time(time.Duration(k)*bt + bt/2)) // halfway into byte k+1
		want := 7 - k
		if k == 7 {
			want = 0
		}
		if got := a.QueueLen(); got != want {
			t.Fatalf("QueueLen at %v = %d, want %d", s.Now(), got, want)
		}
		if drained := a.Drained(); drained != (want == 0) {
			t.Fatalf("Drained at %v = %v with QueueLen %d", s.Now(), drained, want)
		}
	}
}

func TestEmptyWriteIsANoOp(t *testing.T) {
	s := sim.NewScheduler(1)
	a, b := NewLine(s, 9600)
	b.SetReceiver(func(byte) {})
	drains := 0
	a.OnDrain = func() { drains++ }

	// Empty write on an idle line: no event, no drain edge.
	a.Write(nil)
	a.Write([]byte{})
	s.Run()
	if drains != 0 || s.Pending() != 0 || a.BytesSent != 0 {
		t.Fatalf("empty write had effects: drains=%d pending=%d sent=%d", drains, s.Pending(), a.BytesSent)
	}
	if !a.Drained() {
		t.Fatal("idle line not drained")
	}

	// A real write still fires OnDrain exactly once, and a trailing
	// empty write while drained stays a no-op.
	a.Write([]byte("data"))
	s.Run()
	a.Write(nil)
	s.Run()
	if drains != 1 {
		t.Fatalf("drains = %d, want 1", drains)
	}
}

func TestOnDrainFiresOncePerDrainEdge(t *testing.T) {
	s := sim.NewScheduler(1)
	a, b := NewLine(s, 9600)
	b.SetReceiver(func(byte) {})
	var edges []sim.Time
	a.OnDrain = func() { edges = append(edges, s.Now()) }
	bt := a.line.ByteTime()

	a.Write([]byte("ab")) // drains at 2·bt
	s.Run()
	a.Write([]byte("c")) // idle restart: drains one byte time later
	s.Run()
	if len(edges) != 2 {
		t.Fatalf("got %d drain edges, want 2: %v", len(edges), edges)
	}
	if edges[0] != sim.Time(2*bt) || edges[1] != edges[0]+sim.Time(bt) {
		t.Fatalf("drain edges at %v", edges)
	}

	// Back-to-back writes while busy coalesce into one final edge.
	edges = nil
	a.Write([]byte("dd"))
	a.Write([]byte("ee"))
	s.Run()
	if len(edges) != 1 {
		t.Fatalf("got %d drain edges for queued writes, want 1", len(edges))
	}
}

// OnDrain must fire after the receiving side has seen the final run —
// the TNC's pump depends on frame-then-drain ordering.
func TestOnDrainOrderedAfterDelivery(t *testing.T) {
	s := sim.NewScheduler(1)
	a, b := NewLine(s, 9600)
	var order []string
	b.SetRunReceiver(func(p []byte) { order = append(order, "rx") })
	a.OnDrain = func() { order = append(order, "drain") }
	a.Write([]byte("zz"))
	s.Run()
	if len(order) != 2 || order[0] != "rx" || order[1] != "drain" {
		t.Fatalf("order = %v, want [rx drain]", order)
	}
}

func TestPerByteFlagRestoresByteEvents(t *testing.T) {
	s := sim.NewScheduler(1)
	a, b := NewLine(s, 1200)
	var times []sim.Time
	b.SetReceiver(func(byte) { times = append(times, s.Now()) })
	(&perByteEnd{End: a}).Write(make([]byte, 3))
	s.Run()
	if len(times) != 3 {
		t.Fatalf("delivered %d bytes, want 3", len(times))
	}
	bt := a.line.ByteTime()
	for i, at := range times {
		if want := sim.Time(time.Duration(i+1) * bt); at != want {
			t.Fatalf("byte %d at %v, want %v", i, at, want)
		}
	}
}

func TestDefaultBaud(t *testing.T) {
	s := sim.NewScheduler(1)
	a, _ := NewLine(s, 0)
	if a.line.Baud() != DefaultBaud {
		t.Fatalf("baud = %d, want %d", a.line.Baud(), DefaultBaud)
	}
}
