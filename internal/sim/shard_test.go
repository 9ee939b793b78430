package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// traceEntry is one execution a shard recorded: when it ran and the
// shard's running state after it.
type traceEntry struct {
	at Time
	v  uint64
}

// pingPong wires a toy two-shard topology: each side fires an event
// every period and sends a message to the other at now+latency, where
// latency >= the declared lookahead. Each shard records its executions
// in its own trace — the same discipline real sharded components
// follow: a shard touches only its own state.
func buildPingPong() (*Group, [][]traceEntry) {
	g := NewGroup(42)
	la := 10 * time.Millisecond
	a := g.NewShard("a", la)
	b := g.NewShard("b", la)
	traces := make([][]traceEntry, 2)

	var tick func(sh *Shard, peer *Shard, n int)
	tick = func(sh *Shard, peer *Shard, n int) {
		if n <= 0 {
			return
		}
		traces[sh.ID] = append(traces[sh.ID], traceEntry{at: sh.Sched.Now()})
		at := sh.Sched.Now().Add(la)
		g.Send(sh.Sched, peer.Sched, at, func() {
			tick(peer, sh, n-1)
		})
	}
	a.Sched.After(0, func() { tick(a, b, 20) })
	b.Sched.After(5*time.Millisecond, func() { tick(b, a, 20) })
	return g, traces
}

// buildRing wires n shards in a ring, phased so nearly every window
// has every shard busy: each ticks every period from its own offset
// inside the first period, and on every other tick sends its running
// state to the next shard at a jittered delay drawn from its own
// Rand, at least the lookahead. A receiver folds the payload into its
// state, so any change in which events ran, when, or in what order
// shows up in the traces.
func buildRing(n int) (*Group, [][]traceEntry) {
	const (
		la     = 2 * time.Millisecond
		period = time.Millisecond
	)
	g := NewGroup(7)
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i] = g.NewShard(fmt.Sprintf("r%d", i), la)
	}
	traces := make([][]traceEntry, n)
	state := make([]uint64, n)
	record := func(sh *Shard, x uint64) {
		state[sh.ID] = state[sh.ID]*0x100000001b3 ^ x
		traces[sh.ID] = append(traces[sh.ID], traceEntry{at: sh.Sched.Now(), v: state[sh.ID]})
	}
	for i, sh := range shards {
		sh, next := sh, shards[(i+1)%n]
		ticks := 0
		sh.Sched.After(time.Duration(i)*period/time.Duration(n), func() {
			sh.Sched.Every(period, func() {
				record(sh, uint64(sh.Sched.Now()))
				if ticks++; ticks%2 == 0 {
					v := state[sh.ID]
					at := sh.Sched.Now().Add(la + time.Duration(sh.Sched.Rand().Int63n(int64(3*la))))
					g.Send(sh.Sched, next.Sched, at, func() { record(next, v) })
				}
			})
		})
	}
	return g, traces
}

// groupCounters is every deterministic Group statistic.
type groupCounters struct {
	fired, windows, crossings, multiBusy, span2 uint64
}

func countersOf(g *Group) groupCounters {
	return groupCounters{g.Fired(), g.Windows(), g.Crossings(), g.MultiBusyWindows(), g.TwoWorkerSpan()}
}

// TestGroupDeterministicAcrossWorkers pins the conservative protocol's
// promise at the sim layer: a run is a pure function of its build.
// Two builds of each topology give identical shard execution traces
// (what ran, at which virtual time, in which order) and identical
// group counters. The rings keep most windows multi-busy, so the
// window loop's busy list and the two-worker bound see real work.
//
// The variants are named after the worker counts the windows once ran
// on. Each now rebuilds the topology and drives the same second in
// legs: w2 in two RunFor calls, w4 in four, and w4-procs1 in four
// under GOMAXPROCS(1), which a run that starts no goroutine cannot
// notice. A leg's end cuts a window short, which can move the window
// counters (the rings' two-worker span does move), but the traces, the
// events fired and the crossings must not.
func TestGroupDeterministicAcrossWorkers(t *testing.T) {
	topologies := []struct {
		name  string
		build func() (*Group, [][]traceEntry)
	}{
		{"pingpong", buildPingPong},
		{"ring4", func() (*Group, [][]traceEntry) { return buildRing(4) }},
		{"ring6", func() (*Group, [][]traceEntry) { return buildRing(6) }},
	}
	runs := []struct {
		name       string
		legs       int
		gomaxprocs int // 0 leaves GOMAXPROCS alone
	}{
		{"w2", 2, 0},
		{"w4", 4, 0},
		{"w4-procs1", 4, 1},
	}
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			g1, t1 := topo.build()
			g1.RunFor(time.Second)
			want := countersOf(g1)
			for sh := range t1 {
				if len(t1[sh]) == 0 {
					t.Fatalf("shard %d trace empty — the topology never ran", sh)
				}
			}
			if topo.name != "pingpong" && 2*want.multiBusy < want.windows {
				t.Fatalf("only %d of %d windows had two or more busy shards", want.multiBusy, want.windows)
			}
			g2, t2 := topo.build()
			g2.RunFor(time.Second)
			sameTraces(t, t1, t2, "rebuild")
			if got := countersOf(g2); got != want {
				t.Fatalf("group counters differ: %+v vs %+v", want, got)
			}
			for _, run := range runs {
				t.Run(run.name, func(t *testing.T) {
					if run.gomaxprocs > 0 {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(run.gomaxprocs))
					}
					g, tr := topo.build()
					for i := 0; i < run.legs; i++ {
						g.RunFor(time.Second / time.Duration(run.legs))
					}
					sameTraces(t, t1, tr, run.name)
					got := countersOf(g)
					if got.fired != want.fired || got.crossings != want.crossings {
						t.Fatalf("group counters: one leg %+v, %s %+v", want, run.name, got)
					}
				})
			}
		})
	}
}

// sameTraces fails t unless got, a run labelled run, repeats the
// reference traces want entry for entry.
func sameTraces(t *testing.T, want, got [][]traceEntry, run string) {
	t.Helper()
	for sh := range want {
		if len(want[sh]) != len(got[sh]) {
			t.Fatalf("shard %d trace lengths differ: reference %d, %s %d", sh, len(want[sh]), run, len(got[sh]))
		}
		for i := range want[sh] {
			if want[sh][i] != got[sh][i] {
				t.Fatalf("shard %d trace diverges at %d: reference %v, %s %v", sh, i, want[sh][i], run, got[sh][i])
			}
		}
	}
}

// TestGroupWindowAllocs is the window loop's allocation gate: on a
// tick-only ring whose windows mostly hold several busy shards, a run
// allocates nothing, however many windows it runs.
func TestGroupWindowAllocs(t *testing.T) {
	g := NewGroup(3)
	for i := 0; i < 4; i++ {
		sh := g.NewShard(fmt.Sprintf("t%d", i), 2*time.Millisecond)
		sh.Sched.After(time.Duration(i)*250*time.Microsecond, func() {
			sh.Sched.Every(time.Millisecond, func() {})
		})
	}
	for _, d := range []time.Duration{10 * time.Millisecond, 4 * time.Second} {
		w0 := g.MultiBusyWindows()
		allocs := testing.AllocsPerRun(5, func() { g.RunFor(d) })
		windows := (g.MultiBusyWindows() - w0) / 6 // AllocsPerRun adds a warm-up run
		if d > time.Second && windows < 1000 {
			t.Fatalf("RunFor(%v) ran %d multi-busy windows, want >= 1000", d, windows)
		}
		if allocs != 0 {
			t.Errorf("RunFor(%v) over %d multi-busy windows allocated %.0f objects, want 0", d, windows, allocs)
		}
	}
}

// TestGroupCrossShardOrdering pins the deterministic merge: same-time
// messages from several source shards into one destination inject in
// (time, source shard, source sequence) order.
func TestGroupCrossShardOrdering(t *testing.T) {
	g := NewGroup(1)
	la := time.Millisecond
	dst := g.NewShard("dst", la)
	s1 := g.NewShard("s1", la)
	s2 := g.NewShard("s2", la)

	var got []string
	at := Time(0).Add(la)
	// Queue out of order on purpose: s2 twice, then s1 twice, all for
	// the same instant. The merge must order s1 before s2 and each
	// shard's messages in send order.
	s2.Sched.After(0, func() {
		g.Send(s2.Sched, dst.Sched, at, func() { got = append(got, "s2#1") })
		g.Send(s2.Sched, dst.Sched, at, func() { got = append(got, "s2#2") })
	})
	s1.Sched.After(0, func() {
		g.Send(s1.Sched, dst.Sched, at, func() { got = append(got, "s1#1") })
		g.Send(s1.Sched, dst.Sched, at, func() { got = append(got, "s1#2") })
	})
	g.RunFor(10 * time.Millisecond)

	want := []string{"s1#1", "s1#2", "s2#1", "s2#2"}
	if len(got) != len(want) {
		t.Fatalf("got %d deliveries, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	}
	if dst.Delivered() != 4 {
		t.Fatalf("dst.Delivered() = %d, want 4", dst.Delivered())
	}
}

// TestGroupSendBelowLookaheadPanics pins the conservative contract's
// enforcement: a shard may not promise a delivery sooner than its
// declared lookahead.
func TestGroupSendBelowLookaheadPanics(t *testing.T) {
	g := NewGroup(1)
	a := g.NewShard("a", 10*time.Millisecond)
	b := g.NewShard("b", 10*time.Millisecond)
	a.Sched.After(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send below lookahead did not panic")
			}
		}()
		g.Send(a.Sched, b.Sched, a.Sched.Now().Add(time.Millisecond), func() {})
	})
	g.RunFor(time.Millisecond)
}

// TestGroupZeroLookaheadPanics: a zero-latency seam admits no
// conservative bound.
func TestGroupZeroLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewShard with zero lookahead did not panic")
		}
	}()
	NewGroup(1).NewShard("bad", 0)
}

// TestGroupIdleShardNoStall: an idle shard contributes no horizon
// bound, so a busy neighbor advances freely (the starvation case).
func TestGroupIdleShardNoStall(t *testing.T) {
	g := NewGroup(9)
	busy := g.NewShard("busy", time.Millisecond)
	g.NewShard("idle", time.Millisecond) // never holds an event
	n := 0
	busy.Sched.Every(time.Millisecond, func() { n++ })
	g.RunFor(100 * time.Millisecond)
	if n != 100 {
		t.Fatalf("busy shard ran %d ticks, want 100 — an idle shard held the horizon", n)
	}
}

// TestGroupRunUntilClockSemantics pins the clock contract RunUntil
// shares with Scheduler.RunUntil: events at exactly the target run,
// events beyond stay queued, and every clock reads the target after.
func TestGroupRunUntilClockSemantics(t *testing.T) {
	g := NewGroup(5)
	a := g.NewShard("a", time.Millisecond)
	b := g.NewShard("b", time.Millisecond)
	var atTarget, beyond bool
	target := Time(0).Add(50 * time.Millisecond)
	a.Sched.At(target, func() { atTarget = true })
	a.Sched.At(target.Add(time.Nanosecond), func() { beyond = true })
	g.RunUntil(target)
	if !atTarget {
		t.Error("event at exactly the target did not run")
	}
	if beyond {
		t.Error("event beyond the target ran")
	}
	if a.Sched.Now() != target || b.Sched.Now() != target || g.Now() != target {
		t.Errorf("clocks after RunUntil: a=%v b=%v g=%v, want all %v",
			a.Sched.Now(), b.Sched.Now(), g.Now(), target)
	}
	if a.Sched.Pending() != 1 {
		t.Errorf("beyond-target event not still queued (pending=%d)", a.Sched.Pending())
	}
}

// TestGroupDeriveSeedSharedStream pins the equivalence mechanism: the
// group's DeriveSeed stream is one counter over the group seed, shared
// by every shard, and identical to a plain Scheduler's stream with the
// same seed — which is why a sharded build consumes component seeds in
// exactly the sequential build's order.
func TestGroupDeriveSeedSharedStream(t *testing.T) {
	ref := NewScheduler(1234)
	var want []int64
	for i := 0; i < 6; i++ {
		want = append(want, ref.DeriveSeed())
	}

	g := NewGroup(1234)
	a := g.NewShard("a", time.Millisecond)
	b := g.NewShard("b", time.Millisecond)
	// Interleave across shards: the stream must not care which shard
	// draws, only the draw order.
	got := []int64{
		a.Sched.DeriveSeed(), b.Sched.DeriveSeed(), a.Sched.DeriveSeed(),
		b.Sched.DeriveSeed(), b.Sched.DeriveSeed(), a.Sched.DeriveSeed(),
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("derive stream diverges at draw %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

// TestGroupLookaheadProgress sanity-checks window accounting: a run
// takes many windows (bounded lookahead), and crossings count every
// seam message.
func TestGroupLookaheadProgress(t *testing.T) {
	g, _ := buildPingPong()
	g.RunFor(time.Second)
	if g.Windows() == 0 {
		t.Fatal("no windows executed")
	}
	if g.Crossings() == 0 {
		t.Fatal("no cross-shard messages counted")
	}
	// 20 ticks each side send 20+20 messages minus the two seeds' final
	// unsent hops; exact value pinned for determinism.
	if got := g.Crossings(); got != 40 {
		t.Fatalf("crossings = %d, want 40", got)
	}
}
