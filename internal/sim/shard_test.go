package sim

import (
	"bytes"
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
// in its own trace (shards run concurrently; shared state would race —
// the same discipline real sharded components follow).
func buildPingPong(workers int) (*Group, [][]traceEntry) {
	g := NewGroup(42)
	la := 10 * time.Millisecond
	a := g.NewShard("a", la)
	b := g.NewShard("b", la)
	g.SetWorkers(workers)
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
func buildRing(n, workers int) (*Group, [][]traceEntry) {
	const (
		la     = 2 * time.Millisecond
		period = time.Millisecond
	)
	g := NewGroup(7)
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i] = g.NewShard(fmt.Sprintf("r%d", i), la)
	}
	g.SetWorkers(workers)
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
// promise at the sim layer: each shard's execution trace (what ran, at
// which virtual time, in which order) is identical for any worker
// count, as are the group counters. The ring keeps nearly every window
// on the worker pool; forcing four workers onto one P covers the
// oversubscribed pool that tests reach through SetWorkers.
func TestGroupDeterministicAcrossWorkers(t *testing.T) {
	topologies := []struct {
		name  string
		build func(workers int) (*Group, [][]traceEntry)
	}{
		{"pingpong", buildPingPong},
		{"ring4", func(w int) (*Group, [][]traceEntry) { return buildRing(4, w) }},
		{"ring6", func(w int) (*Group, [][]traceEntry) { return buildRing(6, w) }},
	}
	runs := []struct {
		name       string
		workers    int
		gomaxprocs int // 0 leaves GOMAXPROCS alone
	}{
		{"w2", 2, 0},
		{"w4", 4, 0},
		{"w4-procs1", 4, 1},
	}
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			g1, t1 := topo.build(1)
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
			for _, run := range runs {
				t.Run(run.name, func(t *testing.T) {
					if run.gomaxprocs > 0 {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(run.gomaxprocs))
					}
					g, tr := topo.build(run.workers)
					g.RunFor(time.Second)
					for sh := range t1 {
						if len(t1[sh]) != len(tr[sh]) {
							t.Fatalf("shard %d trace lengths differ: w1 %d, %s %d", sh, len(t1[sh]), run.name, len(tr[sh]))
						}
						for i := range t1[sh] {
							if t1[sh][i] != tr[sh][i] {
								t.Fatalf("shard %d trace diverges at %d: w1 %v, %s %v", sh, i, t1[sh][i], run.name, tr[sh][i])
							}
						}
					}
					if got := countersOf(g); got != want {
						t.Fatalf("group counters differ: w1 %+v, %s %+v", want, run.name, got)
					}
				})
			}
		})
	}
}

// TestGroupPoolStopsWithRun: the worker pool lives for one RunUntil.
// Every helper a run starts is joined before RunFor returns, so no
// goroutine is left in the helper loop afterwards. The check reads the
// helpers' own stacks rather than the process's goroutine count, which
// other tests' goroutines can still be leaving.
func TestGroupPoolStopsWithRun(t *testing.T) {
	g, _ := buildRing(4, 4)
	for i := 0; i < 3; i++ {
		g.RunFor(100 * time.Millisecond)
		// A joined helper can still be unwinding its last frame for a
		// moment after the join; one that outlives the run never goes.
		n := helpersAlive()
		for deadline := time.Now().Add(time.Second); n > 0 && time.Now().Before(deadline); n = helpersAlive() {
			runtime.Gosched()
		}
		if n > 0 {
			t.Fatalf("run %d: %d pool helpers outlived RunFor", i, n)
		}
	}
	if g.MultiBusyWindows() == 0 {
		t.Fatal("no window reached the pool")
	}
}

// helpersAlive counts goroutines inside the pool's helper loop.
func helpersAlive() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("sim.(*Group).help("))
}

// poolStartAllocs bounds the heap objects one run's pool start
// allocates per helper: the closure its go statement captures and,
// when no exited goroutine is at hand to reuse, the goroutine itself.
const poolStartAllocs = 2

// TestGroupWindowAllocs is the window loop's allocation gate: at two
// workers every window of a tick-only ring goes to the pool, and a
// run's allocations must not grow with its length — only the pool's
// start-up objects remain, however many windows it dispatches.
// AllocsPerRun measures on one P, which keeps the runtime's own
// goroutine and wait-queue caches in one place, so the count is
// exact.
func TestGroupWindowAllocs(t *testing.T) {
	g := NewGroup(3)
	for i := 0; i < 4; i++ {
		sh := g.NewShard(fmt.Sprintf("t%d", i), 2*time.Millisecond)
		sh.Sched.After(time.Duration(i)*250*time.Microsecond, func() {
			sh.Sched.Every(time.Millisecond, func() {})
		})
	}
	g.SetWorkers(2)
	limit := float64(poolStartAllocs * (g.Workers() - 1))
	for _, d := range []time.Duration{10 * time.Millisecond, 4 * time.Second} {
		w0 := g.MultiBusyWindows()
		allocs := testing.AllocsPerRun(5, func() { g.RunFor(d) })
		windows := (g.MultiBusyWindows() - w0) / 6 // AllocsPerRun adds a warm-up run
		if d > time.Second && windows < 1000 {
			t.Fatalf("RunFor(%v) ran %d multi-busy windows, want >= 1000", d, windows)
		}
		if allocs > limit {
			t.Errorf("RunFor(%v) over %d multi-busy windows allocated %.0f objects, want <= %.0f",
				d, windows, allocs, limit)
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
	g, _ := buildPingPong(1)
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
