// The sharded engine: several Schedulers advancing in lockstep
// windows under conservative lookahead (DESIGN.md §3g).
//
// A Group partitions a simulation into shards, each owning one
// Scheduler and the components attached to it. Shards only influence
// each other through declared seams — links whose propagation delay is
// known in advance — so a classic conservative PDES bound applies: a
// shard holding no event earlier than t cannot cause anything in a
// neighbor before t + L, where L is the smallest latency on any seam
// leaving it. Each synchronization round ("window") computes the
// horizon
//
//	H = min over shards of (earliest pending event + shard lookahead)
//
// and every busy shard runs its events strictly before H, one shard
// after another in shard order on the calling goroutine. Cross-shard
// deliveries travel as timestamped messages into the destination
// shard's inbox and are injected at the next window boundary. Shards
// run in shard order and each sends in program order, so an inbox
// fills in (source shard, send order); the scheduler breaks equal-time
// ties by insertion, so same-instant arrivals fire in that order and a
// run is a pure function of the seed exactly as on the single-loop
// engine.
//
// Progress is guaranteed: the globally earliest event at time m sits in
// some shard j, and H >= m + lookahead(j) > m, so every window fires at
// least that event. An idle shard contributes no bound at all (its
// earliest-output time is infinite), so a silent channel never stalls
// the world — the starvation case the shard tests pin.

package sim

import (
	"fmt"
	"time"
)

// timeInf is an unreachable horizon (no bound).
const timeInf = Time(1<<63 - 1)

// xmsg is one cross-shard delivery: fn runs at virtual time at in the
// destination shard.
type xmsg struct {
	at Time
	fn func()
}

// Shard is one partition: a Scheduler plus the seam bookkeeping the
// Group needs to bound how far it may run ahead.
type Shard struct {
	ID    int
	Name  string
	Sched *Scheduler

	group *Group

	// lookahead is the smallest propagation latency on any seam leaving
	// this shard: no event fired here at time t can deliver into
	// another shard before t + lookahead. Sends below the bound panic.
	lookahead time.Duration

	// inbox holds the messages sent to this shard since the last
	// window boundary, in arrival order.
	inbox []xmsg
}

// Group coordinates a set of shards. Create one with NewGroup, add
// shards with NewShard, attach components to each shard's Scheduler,
// then drive virtual time with RunFor/RunUntil.
type Group struct {
	seed    int64
	derived uint64 // the shared DeriveSeed counter (see Scheduler.deriveFn)

	shards []*Shard
	byShed map[*Scheduler]*Shard
	now    Time

	// Deterministic run statistics.
	windows   uint64
	crossings uint64
}

// NewGroup creates an empty shard group. seed plays the role the
// single-loop scheduler's seed plays: every component-level DeriveSeed
// call, from any shard, draws from one splitmix64 stream over (seed,
// call index) — the same stream a sequential build with the same seed
// and the same construction order consumes, which is what keeps the
// two engines' per-component RNGs identical.
func NewGroup(seed int64) *Group {
	return &Group{seed: seed, byShed: make(map[*Scheduler]*Shard)}
}

// deriveSeed is Scheduler.DeriveSeed's splitmix64, over the group-wide
// counter.
func (g *Group) deriveSeed() int64 {
	g.derived++
	x := uint64(g.seed) + 0x9e3779b97f4a7c15*g.derived
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// shardSchedSeed seeds shard k's own Rand stream. It must not consume
// the shared DeriveSeed stream (that would shift every component seed
// relative to a sequential build), so it mixes the group seed with the
// shard index under a different salt.
func shardSchedSeed(seed int64, k int) int64 {
	x := uint64(seed) ^ 0xd1b54a32d192ed03
	x += 0x9e3779b97f4a7c15 * uint64(k+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// NewShard adds a shard whose outbound seams all have latency >=
// lookahead. A lookahead <= 0 panics: a zero-latency seam admits no
// conservative bound (the shards would have to run in lockstep per
// event, which is the single-loop engine).
func (g *Group) NewShard(name string, lookahead time.Duration) *Shard {
	if lookahead <= 0 {
		panic("sim: shard lookahead must be positive")
	}
	s := NewScheduler(shardSchedSeed(g.seed, len(g.shards)))
	s.deriveFn = g.deriveSeed
	sh := &Shard{ID: len(g.shards), Name: name, Sched: s, group: g, lookahead: lookahead}
	g.shards = append(g.shards, sh)
	g.byShed[s] = sh
	return sh
}

// Shards lists the group's shards in creation order.
func (g *Group) Shards() []*Shard { return g.shards }

// Now reports the group's virtual time: the point every shard has been
// advanced to by the last RunUntil/RunFor.
func (g *Group) Now() Time { return g.now }

// Windows reports how many synchronization rounds have executed
// (deterministic for a given seed and run schedule).
func (g *Group) Windows() uint64 { return g.windows }

// Crossings reports how many cross-shard messages have been exchanged
// (deterministic for a given seed).
func (g *Group) Crossings() uint64 { return g.crossings }

// Fired sums events executed across all shards.
func (g *Group) Fired() uint64 {
	var n uint64
	for _, sh := range g.shards {
		n += sh.Sched.Fired()
	}
	return n
}

// Send schedules fn to run at virtual time at in the shard owning dst.
// src identifies the sending shard's scheduler. Send enforces the
// conservative contract: at must lie at least the sending shard's
// declared lookahead beyond its clock. Same-shard sends degenerate to
// a plain At.
func (g *Group) Send(src, dst *Scheduler, at Time, fn func()) {
	if src == dst {
		src.At(at, fn)
		return
	}
	from := g.byShed[src]
	to := g.byShed[dst]
	if from == nil || to == nil {
		panic("sim: Send between schedulers not in this group")
	}
	if d := at.Sub(src.now); d < from.lookahead {
		panic(fmt.Sprintf("sim: shard %q sent a message %v ahead, below its declared lookahead %v",
			from.Name, d, from.lookahead))
	}
	to.inbox = append(to.inbox, xmsg{at: at, fn: fn})
}

// drain injects every queued inbox message into the shard's scheduler
// in arrival order: the scheduler orders them by time, and same-instant
// ones by that order. Called only between windows.
func (sh *Shard) drain() {
	msgs := sh.inbox
	if len(msgs) == 0 {
		return
	}
	for _, m := range msgs {
		if m.at < sh.Sched.now {
			panic(fmt.Sprintf("sim: shard %q received a message for %v with its clock at %v — lookahead violated",
				sh.Name, m.at, sh.Sched.now))
		}
		sh.Sched.At(m.at, m.fn)
	}
	sh.group.crossings += uint64(len(msgs))
	// The next window's crossings reuse the backing array.
	clear(msgs)
	sh.inbox = msgs[:0]
}

// horizon computes the next window bound: min over busy shards of
// (head event time + lookahead). Returns the bound and the earliest
// head event (timeInf when every shard is idle).
func (g *Group) horizon() (h, next Time) {
	h, next = timeInf, timeInf
	for _, sh := range g.shards {
		q := sh.Sched.queue
		if len(q) == 0 {
			continue
		}
		t := q[0].when
		if t < next {
			next = t
		}
		if e := t.Add(sh.lookahead); e < h {
			h = e
		}
	}
	return h, next
}

// RunUntil advances every shard to exactly target, executing all
// events with deadlines <= target in conservative windows. Events
// beyond target stay queued; afterwards every shard clock (and the
// group clock) reads target, matching Scheduler.RunUntil semantics.
func (g *Group) RunUntil(target Time) {
	for {
		for _, sh := range g.shards {
			sh.drain()
		}
		h, next := g.horizon()
		if next > target {
			break
		}
		// The bound is exclusive (shards run events strictly before it),
		// so cap it just past target to admit events at exactly target —
		// capping below the true horizon is always safe.
		if lim := target + 1; h > lim {
			h = lim
		}
		g.windows++
		g.runWindow(h)
	}
	for _, sh := range g.shards {
		if sh.Sched.now < target {
			sh.Sched.now = target
		}
	}
	g.now = target
}

// RunFor advances the group d beyond its current time.
func (g *Group) RunFor(d time.Duration) { g.RunUntil(g.now.Add(d)) }

// runWindow runs every shard up to (exclusive) bound h, in shard
// order; a shard with nothing below the bound runs nothing.
func (g *Group) runWindow(h Time) {
	for _, sh := range g.shards {
		sh.Sched.RunBefore(h)
	}
}
