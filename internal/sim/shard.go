// The sharded parallel engine: several Schedulers advancing in
// lockstep windows under conservative lookahead (DESIGN.md §3g).
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
// and every shard runs its events strictly before H, in parallel on a
// worker pool or inline. Cross-shard deliveries travel as timestamped
// messages into the destination shard's inbox and are injected at the
// next window boundary in a deterministic order — (time, source shard,
// source sequence) — so results are bit-identical regardless of how
// many workers execute the windows, and a run is a pure function of
// the seed exactly as on the single-loop engine.
//
// Progress is guaranteed: the globally earliest event at time m sits in
// some shard j, and H >= m + lookahead(j) > m, so every window fires at
// least that event. An idle shard contributes no bound at all (its
// earliest-output time is infinite), so a silent channel never stalls
// the world — the starvation case the shard tests pin.

package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// timeInf is an unreachable horizon (no bound).
const timeInf = Time(1<<63 - 1)

// The pool's claim word packs one published window into a uint64: its
// busy-shard count in the high half and the index of the next
// unclaimed busy shard in the low half. A claimant takes a slot with
// one compare-and-swap of the word it loaded, and only then reads the
// window's busy list and bound. A helper holding a word from a
// finished window cannot take a stale slot: the coordinator rewrites
// busy and h only once every slot is claimed and run, so a swap that
// succeeds always takes an unclaimed slot of the current window.
const (
	countShift = 32
	claimMask  = 1<<countShift - 1
)

// poolSpin is how many times a pool goroutine polls before it blocks:
// a helper parks after poolSpin empty polls of the claim word, and the
// coordinator, waiting for shards helpers took, yields its P once
// every poolSpin polls. On a 2-vCPU VM the 1000-station world ran
// fastest at 10 to 100 polls; at 1,000 and more a spinning helper took
// CPU from the coordinator, which runs most windows' shards itself.
const poolSpin = 100

// xmsg is one cross-shard delivery: fn runs at virtual time at in the
// destination shard. src/seq make same-instant merges deterministic.
type xmsg struct {
	at  Time
	src int
	seq uint64
	fn  func()
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

	// sent numbers this shard's outgoing messages. Only the goroutine
	// executing the shard's window touches it; the coordinator reads it
	// between windows (ordered by the executor barrier).
	sent uint64

	// ran is how many events the shard fired in the last window it was
	// busy in, written by whichever goroutine ran it and read by the
	// coordinator after the barrier.
	ran uint64

	mu    sync.Mutex
	inbox []xmsg
	// inboxN mirrors len(inbox) so the coordinator's between-window
	// sweep can skip empty inboxes with one atomic load instead of a
	// mutex round-trip per shard per window — most shards receive
	// nothing in most windows, and the sweep runs O(shards × windows)
	// times.
	inboxN atomic.Int32

	// delivered counts cross-shard messages injected into this shard —
	// a per-shard observability counter (deterministic).
	delivered uint64
}

// Lookahead reports the shard's declared outbound seam bound.
func (sh *Shard) Lookahead() time.Duration { return sh.lookahead }

// Delivered reports how many cross-shard messages this shard has
// received (deterministic for a given seed).
func (sh *Shard) Delivered() uint64 { return sh.delivered }

// Group coordinates a set of shards. Create one with NewGroup, add
// shards with NewShard, attach components to each shard's Scheduler,
// then drive virtual time with RunFor/RunUntil. Not safe for use while
// a window is executing; all methods are coordinator-side.
type Group struct {
	seed    int64
	derived uint64 // the shared DeriveSeed counter (see Scheduler.deriveFn)

	shards  []*Shard
	byShed  map[*Scheduler]*Shard
	now     Time
	workers int

	// Deterministic run statistics.
	windows   uint64
	crossings uint64
	multiBusy uint64 // windows with two or more busy shards
	span2     uint64 // see TwoWorkerSpan

	// busy is runWindow's scratch list of shards with work below the
	// bound, reused across windows (a long run executes millions).
	busy []*Shard

	// The worker pool. Helpers run only while RunUntil is on the
	// stack: the first window with two or more busy shards starts
	// workers-1 of them and RunUntil joins them before it returns.
	// The coordinator writes h and busy, then publishes the window in
	// claim; a helper reads h and busy only after a compare-and-swap
	// on claim succeeds, and the coordinator rewrites them only once
	// pending reaches zero.
	h       Time     // bound of the published window
	helpers []helper // one parking spot per helper goroutine
	pooled  bool     // helpers are running
	joined  sync.WaitGroup

	// The words helpers poll sit on cache lines of their own, so a
	// spinning helper does not turn every counter update above into a
	// cache miss for the coordinator.
	_        [64]byte
	claim    atomic.Uint64 // (count, next) of the published window
	pending  atomic.Int32  // published shards not yet run to h
	stopping atomic.Bool   // RunUntil is returning: helpers exit
	_        [64]byte
}

// helper is one pool goroutine's parking spot. A helper with nothing
// to claim sets sleeping, checks the claim word once more, and blocks
// on wake; whoever clears sleeping from true to false owes it exactly
// one token on wake, so the channel never holds more than one and no
// wake-up is lost.
type helper struct {
	sleeping atomic.Bool
	wake     chan struct{}
}

// NewGroup creates an empty shard group. seed plays the role the
// single-loop scheduler's seed plays: every component-level DeriveSeed
// call, from any shard, draws from one splitmix64 stream over (seed,
// call index) — the same stream a sequential build with the same seed
// and the same construction order consumes, which is what keeps the
// two engines' per-component RNGs identical.
func NewGroup(seed int64) *Group {
	return &Group{seed: seed, byShed: make(map[*Scheduler]*Shard), workers: 1}
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

// ShardOf maps a scheduler back to its shard (nil if foreign).
func (g *Group) ShardOf(s *Scheduler) *Shard { return g.byShed[s] }

// SetWorkers sets how many goroutines execute each window's busy
// shards. 1 (the default) runs shards inline on the coordinator in
// shard order — on a single-core host that is also the fastest
// configuration. At k > 1 a window with two or more busy shards runs
// on a worker pool: the coordinator plus k-1 helper goroutines that
// live for one RunUntil and claim the window's shards one at a time.
// Between windows a helper spins briefly, then parks, and a parked
// helper is woken only for a window with more than two busy shards.
// Windows with one busy shard still run inline. The deterministic
// merge order makes results identical at every worker count, so this
// is purely a throughput knob. Counts above GOMAXPROCS stay correct,
// but helpers then share Ps with the coordinator; NewLarge caps its
// worlds' counts there.
func (g *Group) SetWorkers(k int) {
	if k < 1 {
		k = 1
	}
	g.workers = k
}

// Workers reports the executor count.
func (g *Group) Workers() int { return g.workers }

// Now reports the group's virtual time: the point every shard has been
// advanced to by the last RunUntil/RunFor.
func (g *Group) Now() Time { return g.now }

// Windows reports how many synchronization rounds have executed
// (deterministic for a given seed and run schedule).
func (g *Group) Windows() uint64 { return g.windows }

// Crossings reports how many cross-shard messages have been exchanged
// (deterministic for a given seed).
func (g *Group) Crossings() uint64 { return g.crossings }

// MultiBusyWindows reports how many windows had two or more busy
// shards — the only windows a second worker can shorten
// (deterministic).
func (g *Group) MultiBusyWindows() uint64 { return g.multiBusy }

// TwoWorkerSpan sums, over every window, the events the busier of two
// workers must fire in it at best: the larger of the busiest shard's
// events and half the window's events, rounded up. Fired events over
// it is the speedup two workers could reach if every event cost the
// same and coordination were free (deterministic).
func (g *Group) TwoWorkerSpan() uint64 { return g.span2 }

// Fired sums events executed across all shards.
func (g *Group) Fired() uint64 {
	var n uint64
	for _, sh := range g.shards {
		n += sh.Sched.Fired()
	}
	return n
}

// Pending sums queued events across all shards.
func (g *Group) Pending() int {
	n := 0
	for _, sh := range g.shards {
		n += sh.Sched.Pending()
	}
	return n
}

// Send schedules fn to run at virtual time at in the shard owning dst.
// src identifies the sending shard's scheduler; the pair (src shard,
// per-shard sequence) orders same-instant arrivals deterministically.
// Send enforces the conservative contract: at must lie at least the
// sending shard's declared lookahead beyond its clock. Same-shard
// sends degenerate to a plain At.
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
	from.sent++
	m := xmsg{at: at, src: from.ID, seq: from.sent, fn: fn}
	to.mu.Lock()
	to.inbox = append(to.inbox, m)
	to.mu.Unlock()
	to.inboxN.Add(1)
}

// drain injects every queued inbox message into the shard's scheduler,
// in (time, source shard, source sequence) order. Called only between
// windows, on the coordinator.
func (sh *Shard) drain() {
	if sh.inboxN.Load() == 0 {
		return
	}
	sh.mu.Lock()
	msgs := sh.inbox
	sh.inbox = nil
	sh.mu.Unlock()
	sh.inboxN.Add(-int32(len(msgs)))
	if len(msgs) == 0 {
		return
	}
	sort.Slice(msgs, func(i, j int) bool {
		if msgs[i].at != msgs[j].at {
			return msgs[i].at < msgs[j].at
		}
		if msgs[i].src != msgs[j].src {
			return msgs[i].src < msgs[j].src
		}
		return msgs[i].seq < msgs[j].seq
	})
	for _, m := range msgs {
		if m.at < sh.Sched.now {
			panic(fmt.Sprintf("sim: shard %q received a message for %v with its clock at %v — lookahead violated",
				sh.Name, m.at, sh.Sched.now))
		}
		sh.Sched.At(m.at, m.fn)
		sh.delivered++
	}
	sh.group.crossings += uint64(len(msgs))
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
	defer g.stopPool()
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

// runWindow executes every busy shard up to (exclusive) bound h, then
// adds the window to the two-worker bound.
func (g *Group) runWindow(h Time) {
	busy := g.busy[:0]
	for _, sh := range g.shards {
		if q := sh.Sched.queue; len(q) > 0 && q[0].when < h {
			busy = append(busy, sh)
		}
	}
	g.busy = busy
	if g.workers > 1 && len(busy) > 1 {
		g.dispatch(h)
	} else {
		for _, sh := range busy {
			sh.ran = sh.Sched.RunBefore(h)
		}
	}
	var sum, most uint64
	for _, sh := range busy {
		sum += sh.ran
		most = max(most, sh.ran)
	}
	if len(busy) > 1 {
		g.multiBusy++
	}
	g.span2 += max(most, (sum+1)/2)
}

// dispatch runs the busy shards of window h on the pool: it publishes
// the window, wakes parked helpers, claims shards itself alongside
// them, and returns once every shard has run.
func (g *Group) dispatch(h Time) {
	if !g.pooled {
		g.startPool()
	}
	n := len(g.busy)
	g.h = h
	g.pending.Store(int32(n))
	g.claim.Store(uint64(n) << countShift)
	// Parked helpers are woken only for the shards beyond the first
	// two. A woken helper is readied onto the coordinator's P, and the
	// runtime lets an idle P take it from there only after a back-off
	// of a few microseconds: about as long as the coordinator takes to
	// run two shards' windows on the regional worlds, where 75% of pool
	// windows have exactly two busy shards (DESIGN.md §3g). A spinning
	// helper still takes any shard.
	for i, woken := 0, 2; i < len(g.helpers) && woken < n; i++ {
		if g.rouse(&g.helpers[i]) {
			woken++
		}
	}
	for g.claimShard() {
	}
	for spins := 1; g.pending.Load() != 0; spins++ {
		if spins%poolSpin == 0 {
			runtime.Gosched()
		}
	}
}

// claimShard takes the next unclaimed shard of the published window
// and runs it to the window's bound. It reports false when no shard is
// left to claim.
func (g *Group) claimShard() bool {
	for {
		w := g.claim.Load()
		if !unclaimed(w) {
			return false
		}
		if g.claim.CompareAndSwap(w, w+1) {
			sh := g.busy[w&claimMask]
			sh.ran = sh.Sched.RunBefore(g.h)
			g.pending.Add(-1)
			return true
		}
	}
}

// unclaimed reports whether claim word w has a shard left to take.
func unclaimed(w uint64) bool { return w&claimMask < w>>countShift }

// rouse wakes helper p if it is parked, reporting whether it was.
func (g *Group) rouse(p *helper) bool {
	if !p.sleeping.CompareAndSwap(true, false) {
		return false
	}
	p.wake <- struct{}{}
	return true
}

// help is one helper goroutine's loop: claim shards from published
// windows until the run ends, spinning between windows and then
// parking.
func (g *Group) help(p *helper) {
	defer g.joined.Done()
	for spins := 0; ; {
		if g.claimShard() {
			spins = 0
			continue
		}
		if g.stopping.Load() {
			return
		}
		if spins++; spins < poolSpin {
			continue
		}
		spins = 0
		p.sleeping.Store(true)
		if (unclaimed(g.claim.Load()) || g.stopping.Load()) && p.sleeping.CompareAndSwap(true, false) {
			continue
		}
		<-p.wake
	}
}

// startPool starts workers-1 helper goroutines for the current run.
func (g *Group) startPool() {
	if len(g.helpers) != g.workers-1 {
		g.helpers = make([]helper, g.workers-1)
		for i := range g.helpers {
			g.helpers[i].wake = make(chan struct{}, 1)
		}
	}
	g.pooled = true
	g.joined.Add(len(g.helpers))
	for i := range g.helpers {
		go g.help(&g.helpers[i])
	}
}

// stopPool ends the run's helpers, if any started, and waits for them.
func (g *Group) stopPool() {
	if !g.pooled {
		return
	}
	g.stopping.Store(true)
	for i := range g.helpers {
		g.rouse(&g.helpers[i])
	}
	g.joined.Wait()
	g.stopping.Store(false)
	g.pooled = false
}
