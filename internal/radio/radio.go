// Package radio simulates the shared amateur packet-radio channel: a
// single-frequency, half-duplex broadcast medium at (by default) 1200
// bits per second, the regime in which the paper's §3 observation —
// "the transmission time is the dominant factor in determining
// throughput and latency" — holds.
//
// The model is at frame granularity with continuous time:
//
//   - Every attached Transceiver that can hear the sender observes
//     carrier from key-up to key-release (TXDELAY preamble plus frame
//     airtime).
//   - Two transmissions that overlap in time at a receiver that hears
//     both senders destroy each other there (no capture effect).
//   - A half-duplex transceiver cannot receive while it transmits.
//   - Reachability is a directed relation, so hidden-terminal and
//     digipeater topologies (Seattle–Tacoma via a hilltop relay) are
//     expressible.
//
// Channel access (p-persistent CSMA with slot time, per the KISS
// parameters) is implemented here in Transceiver.Send because in the
// real system it lives in the TNC, which owns those parameters.
//
// Contention is event-driven (DESIGN.md §3c): a deferred transmitter
// does not poll the carrier once per SlotTime. Instead it walks its own
// slot grid past the stretches the currently scheduled transmissions
// keep busy, takes the persistence draws for the idle slots ahead of
// time from its private RNG, and parks on the channel's wait-list with
// one wake event at the first slot whose draw wins. It is re-planned on
// carrier edges (key-up, and early release via Retune). Busy slots and
// lost draws that pass while parked are settled as CSMADeferrals in one
// step, and every draw is decided in the per-slot order, so the
// observable outcome — deferral counts, transmit instants, collision
// windows — is identical to the seed's per-slot polling, which the
// package's tests keep as an Accessor to check against.
package radio

import (
	"time"

	"packetradio/internal/pool"
	"packetradio/internal/sim"
)

// ChannelStats aggregates channel-wide accounting.
type ChannelStats struct {
	FramesStarted uint64 // transmissions keyed up (data and control)
	FramesDamaged uint64 // receptions lost to collision or noise
	// FramesHeard counts successful receptions, per receiver. The raw
	// field lags: receptions the addressee walk settled in bulk are
	// counted in only by Channel.FramesHeard, so read that.
	FramesHeard    uint64
	Airtime        time.Duration // total transmit airtime (sum over senders)
	CollisionPairs uint64        // distinct overlapping transmission pairs

	// MAC-overhead accounting: airtime and key-ups spent on pure
	// channel-access control traffic (DAMA polls and no-traffic
	// responses — CSMA has none). Included in Airtime/FramesStarted
	// above; E16 reports the share.
	ControlFrames  uint64
	ControlAirtime time.Duration
}

// TapOutcome classifies one per-receiver delivery for Channel.Tap.
type TapOutcome uint8

const (
	TapOK         TapOutcome = iota // received intact
	TapCollision                    // destroyed by overlapping transmission
	TapNoise                        // destroyed by the BER draw
	TapHalfDuplex                   // missed: receiver was transmitting
	TapTruncated                    // cut mid-frame by the sender retuning
)

func (o TapOutcome) String() string {
	switch o {
	case TapOK:
		return "ok"
	case TapCollision:
		return "collision"
	case TapNoise:
		return "noise"
	case TapHalfDuplex:
		return "half-duplex"
	case TapTruncated:
		return "truncated"
	}
	return "unknown"
}

// Channel is one radio frequency shared by all attached transceivers.
type Channel struct {
	sched *sim.Scheduler

	// Tap, when non-nil, observes the delivery outcome at every
	// receiver the channel hands a frame to: payload is what the
	// receiver's MAC handed up (DAMA-unwrapped for data; the raw on-air
	// bytes for half-duplex misses, where no MAC ran), consumed reports
	// a frame the MAC swallowed as channel-access control. A receiver
	// the addressee walk settles in bulk (Listen) is never handed the
	// frame, so it is not tapped either; every receiver that takes the
	// frame is. Purely read-side — a tap must not touch the channel.
	Tap func(sender, receiver *Transceiver, payload []byte, outcome TapOutcome, consumed bool)

	// Classify, when non-nil, names the receivers that take each frame
	// (Classifier), so a frame reaches only those (Listen): the
	// addressee walk. Nil walks every receiver of every frame.
	Classify Classifier

	// BitRate is the on-air signalling rate in bits per second.
	BitRate int

	// BitErrorRate, when nonzero, is the per-bit probability of noise
	// damage; a frame survives with probability (1-BER)^bits.
	BitErrorRate float64

	Stats ChannelStats

	stations []*Transceiver
	active   []*transmission

	// waiters are transceivers with a deferred transmission pending: an
	// event-driven contender appears here from the moment its frame has
	// to wait for the carrier (or a persistence draw) until it keys up,
	// leaves on key-up or Retune, and is re-planned on carrier edges.
	waiters []*Transceiver

	// unreachable holds ordered pairs (from,to) that cannot hear each
	// other. Default (empty) is full mesh. deaf counts its true entries
	// (SetReachable stores reachable pairs as false).
	unreachable map[[2]*Transceiver]bool
	deaf        int

	// accs are the distinct channel-access policies in use by attached
	// stations (refcounted in accRef), in first-arrival order; carrier
	// edges dispatch to each exactly once.
	accs   []Accessor
	accRef map[Accessor]int

	// memo is the slot the channel's receivers share (Memo).
	memo any

	// seats gives each station that ever tuned here its index in a
	// transmission's damage bitset. A seat is never given to another
	// station, and a station that comes back gets its own again, so
	// Retune cannot misalign a bitset.
	seats map[*Transceiver]int

	// The addressee walk (addressees.go): idx is the receiver index,
	// nil until rebuilt after a change to who listens for what; bulk
	// counts the frames the walk completed and passed the bystander
	// receptions it settled in bulk (Channel.FramesHeard).
	idx    *addressees
	bulk   uint64
	passed uint64

	// The channel's free lists (DESIGN.md §3b): frames holds on-air
	// frame buffers, which Send and TransmitMAC fill and the channel
	// takes back after a transmission's last receiver; txs holds
	// finished transmissions.
	frames pool.List[[]byte]
	txs    pool.List[*transmission]
}

// DefaultBitRate is the classic 1200 bps AFSK channel rate of the
// paper's network ("the link speed is only 1200 bits per second").
const DefaultBitRate = 1200

// dcdDelay is the data-carrier-detect latency, typical of 1200 bps
// AFSK demodulator squelch circuits: a transmission is invisible to
// other stations' carrier sense until dcdDelay after key-up. This is
// CSMA's vulnerable window; without it, colocated stations in a
// zero-propagation-delay simulation would never collide.
const dcdDelay = 20 * time.Millisecond

// NewChannel creates a channel on the given scheduler.
func NewChannel(sched *sim.Scheduler, bitRate int) *Channel {
	if bitRate <= 0 {
		bitRate = DefaultBitRate
	}
	return &Channel{
		sched:       sched,
		BitRate:     bitRate,
		unreachable: make(map[[2]*Transceiver]bool),
		seats:       make(map[*Transceiver]int),
	}
}

// AirTime reports how long n frame bytes occupy the channel, excluding
// the TXDELAY preamble. AX.25 HDLC framing adds two flag octets and the
// 16-bit FCS is already part of the byte stream handed to the radio.
func (c *Channel) AirTime(n int) time.Duration {
	bits := (n + 2) * 8 // +2 flag octets
	return time.Duration(float64(bits) / float64(c.BitRate) * float64(time.Second))
}

// SetReachable declares whether transmissions from a are audible at b
// (directed). All pairs start reachable.
func (c *Channel) SetReachable(from, to *Transceiver, ok bool) {
	pair := [2]*Transceiver{from, to}
	if c.unreachable[pair] {
		c.deaf--
	}
	if !ok {
		c.deaf++
	}
	c.unreachable[pair] = !ok
	// Audibility is part of the carrier schedule: a waiter deferring to
	// a transmission it can no longer hear may move its wake earlier
	// (and one that just started hearing an active carrier, later).
	for _, a := range c.accs {
		a.CarrierChanged(c)
	}
}

func (c *Channel) reachable(from, to *Transceiver) bool {
	return !c.unreachable[[2]*Transceiver{from, to}]
}

// Memo returns a slot the channel's receivers share. A transmission
// reaches every receiver as the same read-only bytes (SetReceiver), so
// work that depends on the bytes alone — the FCS check and decode of
// ax25.Hear — is done by the first receiver and kept here for the
// rest. The slot belongs to the channel, so to the one shard that runs
// it. The channel reuses a frame's bytes once its last receiver has
// returned, so as it takes a frame back it calls Forget on a memo that
// has one, and a later frame in the same bytes is not mistaken for it.
func (c *Channel) Memo() *any { return &c.memo }

// forgetter is a memo that keys on a frame's bytes (Memo).
type forgetter interface{ Forget() }

// release takes tx back after its last receiver's callback: its frame
// and the transmission itself return to the channel's lists.
func (c *Channel) release(tx *transmission) {
	if m, ok := c.memo.(forgetter); ok {
		m.Forget()
	}
	c.frames.Put(tx.frame)
	clear(tx.damagedAt)
	*tx = transmission{damagedAt: tx.damagedAt[:0], doneFn: tx.doneFn}
	c.txs.Put(tx)
}

// Utilization reports offered load: the airtime of every transmission,
// colliding ones included, divided by elapsed time. Overlapping
// transmissions both count, so it exceeds 1 when more is keyed up than
// the channel can carry; it is not the share of time the channel was
// busy.
func (c *Channel) Utilization() float64 {
	if c.sched.Now() == 0 {
		return 0
	}
	return float64(c.Stats.Airtime) / float64(c.sched.Now().Duration())
}

// AirtimeShare reports the fraction of elapsed time this transceiver
// spent transmitting (data and MAC control) — a per-station fairness
// figure that needs no MAC internals (the DAMA tests read it). Shares
// across a channel's stations sum to its Utilization, the offered load.
func (t *Transceiver) AirtimeShare() float64 {
	now := t.ch.sched.Now()
	if now == 0 {
		return 0
	}
	return float64(t.Stats.Airtime) / float64(now.Duration())
}

// Waiters reports how many transceivers currently sit on the deferred-
// transmitter wait-list. It must drain to zero when the channel goes
// quiet — a nonzero value at quiescence is a leaked waiter.
func (c *Channel) Waiters() int { return len(c.waiters) }

func (c *Channel) addWaiter(t *Transceiver) {
	c.waiters = append(c.waiters, t)
}

func (c *Channel) removeWaiter(t *Transceiver) {
	for i, u := range c.waiters {
		if u == t {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

type transmission struct {
	sender     *Transceiver
	frame      []byte
	control    bool // MAC control frame (poll), for overhead accounting
	start, end sim.Time
	done       *sim.Event // delivery at end-of-frame; cancelled by Retune
	doneFn     func()     // complete(tx), built once per transmission
	// overlapped is set once another transmission overlaps this one:
	// only then can a receiver's copy be damaged by collision or missed
	// half duplex.
	overlapped bool
	// damagedAt is a bitset over the channel's seats marking receivers
	// whose copy is destroyed by overlap; nil until the first collision.
	damagedAt []uint64
}

func (t *transmission) overlaps(u *transmission) bool {
	return t.start < u.end && u.start < t.end
}

// damage marks the copy of t heard at seat as destroyed by overlap.
func (t *transmission) damage(seat int) {
	w := seat / 64
	for len(t.damagedAt) <= w {
		t.damagedAt = append(t.damagedAt, 0)
	}
	t.damagedAt[w] |= 1 << (seat % 64)
}

// damaged reports whether the copy of t heard at seat is destroyed.
func (t *transmission) damaged(seat int) bool {
	w := seat / 64
	return w < len(t.damagedAt) && t.damagedAt[w]&(1<<(seat%64)) != 0
}

// TxStats counts per-transceiver events.
type TxStats struct {
	FramesSent   uint64
	FramesQueued uint64
	// FramesHeard counts frames received intact (any destination). The
	// raw field lags: frames the addressee walk settled in bulk are
	// counted in only by Transceiver.FramesHeard, so read that.
	FramesHeard    uint64
	FramesDamaged  uint64 // frames received damaged
	CSMADeferrals  uint64 // slot waits due to busy carrier or persistence
	HalfDuplexMiss uint64 // receptions lost because we were transmitting

	// Fairness accounting, exported so experiments read shares without
	// reaching into MAC internals. Airtime is this station's transmit
	// time (data + control); the poll counters are driven by polled
	// MACs (DAMA) and stay zero under CSMA.
	Airtime      time.Duration
	ControlSent  uint64 // MAC control frames this station keyed up
	PollsSent    uint64 // polls issued while acting as channel master
	PollsHeard   uint64 // polls addressed to this station and heard
	PollTimeouts uint64 // polls this station issued that went unanswered
}

// Params govern channel access for one transceiver, mirroring the KISS
// TNC parameters.
type Params struct {
	TXDelay    time.Duration // key-up to data (default 300 ms)
	SlotTime   time.Duration // CSMA slot (default 100 ms)
	Persist    float64       // p-persistence in (0,1] (default 0.25)
	FullDuplex bool          // transmit without carrier sense
}

// DefaultParams mirror common KISS defaults at 1200 bps.
func DefaultParams() Params {
	return Params{TXDelay: 300 * time.Millisecond, SlotTime: 100 * time.Millisecond, Persist: 0.25}
}

func (p Params) withDefaults() Params {
	if p.TXDelay <= 0 {
		p.TXDelay = 300 * time.Millisecond
	}
	if p.SlotTime <= 0 {
		p.SlotTime = 100 * time.Millisecond
	}
	if p.Persist <= 0 || p.Persist > 1 {
		p.Persist = 0.25
	}
	return p
}

// slotTime is Params.SlotTime floored to the default: a zero slot
// (reachable by pushing a raw KISS SlotTime byte of 0) would otherwise
// wedge contention in a same-instant loop.
func (p Params) slotTime() time.Duration {
	if p.SlotTime <= 0 {
		return 100 * time.Millisecond
	}
	return p.SlotTime
}

// Transceiver is one radio on the channel. Frames are queued with Send
// and transmitted under CSMA; intact receptions are delivered to the
// receive callback, damaged ones to the damage callback (which a TNC
// uses to count CRC errors).
type Transceiver struct {
	Name   string
	Params Params
	Stats  TxStats

	// TraceMAC, when non-nil, observes the MAC seam for the packet
	// tracer: "queue" as Send accepts a frame, "tx-start" as the
	// transmitter keys up with one (deferrals = slot waits the frame
	// burned before winning the channel; MAC-wrapped and control frames
	// pass through in their on-air dress). Read-only: the hook must not
	// retain the slice or touch the transceiver.
	TraceMAC func(event string, frame []byte, deferrals uint64)

	ch  *Channel
	rx  func(frame []byte, damaged bool)
	acc Accessor // channel-access policy; csma unless SetAccessor replaced it

	// frameDeferrals counts slot waits burned by the current head-of-
	// queue frame, reset when a frame keys up.
	frameDeferrals uint64

	// csmaStream draws p-persistence decisions, noiseStream the BER
	// survival of frames received here. Both are private streams
	// seeded from Scheduler.DeriveSeed at Attach, so one station's draw
	// sequence is a function of its attach position alone: adding
	// stations (or reordering their traffic) never perturbs anyone
	// else's CSMA outcomes, and draws taken ahead stay
	// sequence-identical to per-slot ones. Each builds its generator
	// at its first draw, so a clean channel never pays for a noise
	// generator, nor a station that never contends for a CSMA one.
	csmaStream  sim.Stream
	noiseStream sim.Stream

	// queue holds the owned copies of frames awaiting transmission,
	// oldest first (popQueue).
	queue      [][]byte
	contending bool

	// Event-driven contention state: slot is the first unsettled
	// instant on this transceiver's slot grid (anchored where
	// contention started, advancing by SlotTime); wake is the single
	// pending decision event, non-nil exactly while the transceiver is
	// on the channel wait-list. Invariant: every grid slot that passes
	// while the wake is pending was carrier-busy or lost its
	// persistence draw, so the stretch [slot, wakeTime) settles as
	// deferrals when the wake fires.
	//
	// draws is the FIFO of persistence draws taken from csmaStream ahead
	// of their slots, oldest first; losers holds the instants of the
	// planned idle slots whose draws lose, losers[i] owning draws[i].
	// A draw leaves the FIFO only when its slot settles, so the draws
	// decide the same slots, in the same order, as on the per-slot
	// path. Both buffers are reused, so planning allocates nothing in
	// steady state.
	slot     sim.Time
	wake     *sim.Event
	draws    []float64
	losers   []sim.Time
	onSlotFn func() // cached onSlot, so arming a wake never allocates a closure

	transmitting   bool
	txStart, txEnd sim.Time

	// seat is t's index in its channel's damage bitsets (Channel.seats).
	seat int

	// Addressee registration (Listen): keyed receivers take only the
	// frames classified to key (and to everyone); the rest take all.
	keyed bool
	key   uint64

	// Bulk settlement of the frames a listener heard but was never
	// handed (Passed): of the channel's bulk frames since heardMark,
	// heardSeen are those t sent or was walked for, and the rest passed
	// it by. passed holds what earlier folds settled.
	heardMark, heardSeen uint64
	passed               uint64
}

// Attach adds a new transceiver to the channel.
func (c *Channel) Attach(name string, params Params) *Transceiver {
	t := &Transceiver{
		Name:        name,
		Params:      params.withDefaults(),
		ch:          c,
		acc:         csma,
		csmaStream:  sim.NewStream(c.sched.DeriveSeed()),
		noiseStream: sim.NewStream(c.sched.DeriveSeed()),
	}
	t.onSlotFn = t.onSlot
	c.join(t)
	c.addAccessor(t.acc)
	return t
}

// join puts t on c's station list in its seat, rebased for bulk
// settlement on c.
func (c *Channel) join(t *Transceiver) {
	seat, ok := c.seats[t]
	if !ok {
		seat = len(c.seats)
		c.seats[t] = seat
	}
	t.seat = seat
	t.heardMark, t.heardSeen = c.bulk, 0
	c.stations = append(c.stations, t)
	c.idx = nil
}

// Stations returns the attached transceivers.
func (c *Channel) Stations() []*Transceiver { return c.stations }

// Channel reports which channel the transceiver is currently tuned to.
func (t *Transceiver) Channel() *Channel { return t.ch }

// Retune moves the transceiver to another channel — the mobility
// primitive behind World.MoveHost. A transmission in flight is cut
// mid-frame: stations still on the old channel receive a truncated,
// damaged copy. Queued frames carry over and contend on the new
// channel; a pending deferral migrates with them (the waiter leaves
// the old channel's wait-list and re-contends on the new one).
// Reachability overrides involving the transceiver are dropped from
// the old channel so a later return starts from the full-mesh default.
func (t *Transceiver) Retune(to *Channel) {
	old := t.ch
	if old == to || to == nil {
		return
	}
	t.fold()
	for i, s := range old.stations {
		if s == t {
			old.stations = append(old.stations[:i], old.stations[i+1:]...)
			break
		}
	}
	// The old channel's access policy retires any pending admission
	// decision (a parked CSMA waiter migrates; a DAMA member leaves the
	// poll registry — which may reset t's accessor back to CSMA, so the
	// policy is re-read below when the queue restarts).
	t.acc.Detach(t)
	// Cut any transmission in flight: cancel its end-of-frame
	// completion (which would otherwise clobber the sender's state
	// while it may already be transmitting on the new channel),
	// remove the carrier from the old channel, and deliver the
	// truncated frame — damaged — to the stations that were hearing
	// it. The sender's transmit state is cleared so the new channel
	// does not see a phantom half-duplex window.
	now := old.sched.Now()
	cut := false
	for i := len(old.active) - 1; i >= 0; i-- {
		tx := old.active[i]
		if tx.sender != t {
			continue
		}
		old.sched.Cancel(tx.done)
		old.active = append(old.active[:i], old.active[i+1:]...)
		cut = true
		// The cut frame never airs its tail: give back the airtime that
		// transmitFrame credited for [now, tx.end) at key-up, so a
		// station that retunes mid-frame is not billed for carrier it
		// never emitted (and AirtimeShare stays a true share).
		if unaired := tx.end.Sub(now); unaired > 0 {
			t.Stats.Airtime -= unaired
			old.Stats.Airtime -= unaired
			if tx.control {
				old.Stats.ControlAirtime -= unaired
			}
		}
		for _, r := range old.stations {
			if !old.reachable(t, r) {
				continue
			}
			if !r.Params.FullDuplex && r.txStart < now && r.txEnd > tx.start {
				r.Stats.HalfDuplexMiss++
				if old.Tap != nil {
					old.Tap(t, r, tx.frame, TapTruncated, false)
				}
				continue
			}
			payload, consumed := r.acc.Deliver(r, tx.frame, true)
			if old.Tap != nil {
				old.Tap(t, r, payload, TapTruncated, consumed)
			}
			if consumed {
				continue
			}
			r.Stats.FramesDamaged++
			old.Stats.FramesDamaged++
			if r.rx != nil {
				r.rx(shared(payload), true)
			}
		}
		old.release(tx)
	}
	if cut {
		// Early carrier release: waiters whose wake was computed
		// against the cut transmission's end may now be able to move
		// earlier.
		for _, a := range old.accs {
			a.CarrierChanged(old)
		}
	}
	t.transmitting = false
	t.txStart, t.txEnd = 0, 0
	for pair, deaf := range old.unreachable {
		if pair[0] == t || pair[1] == t {
			if deaf {
				old.deaf--
			}
			delete(old.unreachable, pair)
		}
	}
	old.dropAccessor(t.acc)
	t.ch = to
	to.join(t)
	to.addAccessor(t.acc)
	if len(t.queue) > 0 && !t.contending {
		t.acc.Start(t)
	}
}

// SetReceiver installs the frame-delivery callback. Every receiver of
// a transmission is handed the same bytes: read-only, capped at their
// length, so a receiver's append copies them instead of writing where
// another receiver reads, and valid until the callback returns, since
// the channel then reuses them for a later frame. A receiver that keeps
// bytes copies them.
func (t *Transceiver) SetReceiver(rx func(frame []byte, damaged bool)) { t.rx = rx }

// Receiver reports the callback SetReceiver installed.
func (t *Transceiver) Receiver() func(frame []byte, damaged bool) { return t.rx }

// shared caps a delivered frame at its length (SetReceiver).
func shared(p []byte) []byte { return p[:len(p):len(p)] }

// SetParams installs new channel-access parameters (the TNC pushes
// these on KISS parameter frames). Writing the Params field directly
// is fine while idle; with an admission decision outstanding, the
// access policy re-anchors whatever state it computed against the old
// values (mid-defer CSMA settles the old slot grid and restarts on the
// new SlotTime; DAMA has nothing grid-shaped to fix).
func (t *Transceiver) SetParams(p Params) {
	old := t.Params
	t.Params = p
	t.acc.ParamsChanged(t, old)
}

// CarrierSense reports whether t currently detects channel activity
// (its own transmission included).
func (t *Transceiver) CarrierSense() bool {
	if t.transmitting {
		return true
	}
	_, busy := t.busyUntil(t.ch.sched.Now())
	return busy
}

// busyUntil reports whether an already-keyed transmission makes the
// carrier busy for t at instant x — audible (reachable, past the
// dcdDelay lock-in) and still on the air — and if so, until when the
// carrier is known to stay busy from x.
func (t *Transceiver) busyUntil(x sim.Time) (sim.Time, bool) {
	c := t.ch
	var until sim.Time
	busy := false
	for _, tx := range c.active {
		if tx.sender == t || !c.reachable(tx.sender, t) {
			continue
		}
		if tx.start.Add(dcdDelay) <= x && x < tx.end {
			busy = true
			if tx.end > until {
				until = tx.end
			}
		}
	}
	return until, busy
}

// QueueLen reports frames awaiting transmission.
func (t *Transceiver) QueueLen() int { return len(t.queue) }

// CSMADeferrals reports the deferral count as of the current instant.
// The event-driven path settles skipped slots in bulk when its wake
// fires, so mid-defer the raw Stats.CSMADeferrals field lags by the
// slots passed since the last wake, busy or lost to a planned draw;
// this accessor counts them in, making the value slot-exact at any read
// point — the same interpolated-observation contract as
// serial.End.QueueLen (DESIGN.md §3b).
func (t *Transceiver) CSMADeferrals() uint64 {
	n := t.Stats.CSMADeferrals
	now := t.ch.sched.Now()
	if t.wake != nil {
		// Every grid slot in [t.slot, now) was carrier-busy or lost its
		// draw — the wake would otherwise have fired there — and so is
		// the slot at now itself unless it is the pending decision
		// instant (wake exactly at now, not yet fired).
		if d := now.Sub(t.slot); d >= 0 {
			n += uint64(d / t.Params.slotTime())
			if t.wake.When() > now {
				n++
			}
		}
	}
	return n
}

// Send queues one frame (a fully framed byte string, FCS included) for
// CSMA transmission. The slice is copied into a buffer from the
// channel's list: the copy is the on-air frame every receiver will
// share, so the caller may reuse its buffer.
func (t *Transceiver) Send(frame []byte) {
	t.queue = append(t.queue, pool.Copy(&t.ch.frames, frame))
	t.Stats.FramesQueued++
	if t.TraceMAC != nil {
		t.TraceMAC("queue", frame, 0)
	}
	if !t.contending && !t.transmitting {
		t.acc.Start(t)
	}
}

// popQueue removes and returns the head-of-queue frame. The rest slide
// down one slot and the vacated slot is zeroed, so the backing array is
// reused from the front and a queue that drains never regrows it.
func (t *Transceiver) popQueue() []byte {
	f := t.queue[0]
	n := copy(t.queue, t.queue[1:])
	t.queue[n] = nil
	t.queue = t.queue[:n]
	return f
}

// startContention anchors a fresh slot grid at the current instant and
// begins channel access for the head-of-queue frame.
func (t *Transceiver) startContention() {
	t.contending = true
	t.slot = t.ch.sched.Now()
	t.ch.addWaiter(t)
	t.wake = t.ch.sched.At(t.walk(t.slot, 0), t.onSlotFn)
}

// stopContention retires the waiter state (the wake event has fired or
// been cancelled by the caller).
func (t *Transceiver) stopContention() {
	t.contending = false
	t.wake = nil
	t.ch.removeWaiter(t)
}

// firstIdleSlot returns the earliest instant on t's slot grid, at or
// after from, that the currently scheduled transmissions leave idle
// for t. Busy stretches are skipped arithmetically in whole slots —
// the carrier-edge replacement for one polling event per SlotTime.
// Transmissions keyed up later can only push the result later; they
// re-plan the waiter at key-up.
func (t *Transceiver) firstIdleSlot(from sim.Time) sim.Time {
	slotTime := t.Params.slotTime()
	slot := from
	for {
		until, busy := t.busyUntil(slot)
		if !busy {
			return slot
		}
		n := (until.Sub(slot) + slotTime - 1) / slotTime
		slot = slot.Add(time.Duration(n) * slotTime)
	}
}

// walk plans t's wake from grid slot from, keeping the first kept
// planned losers (those before from), and returns the wake instant. It
// skips busy stretches with firstIdleSlot and decides each idle slot
// with the next draw in the FIFO, taking a fresh one from csmaStream when
// the FIFO runs out. It stops at the first idle slot whose draw wins;
// every idle slot before that is a planned loser. Full duplex never
// defers, so it takes no draw and wakes at from.
func (t *Transceiver) walk(from sim.Time, kept int) sim.Time {
	t.losers = t.losers[:kept]
	if t.Params.FullDuplex {
		return from
	}
	slotTime := t.Params.slotTime()
	for slot := from; ; slot = slot.Add(slotTime) {
		slot = t.firstIdleSlot(slot)
		i := len(t.losers)
		if i == len(t.draws) {
			t.draws = append(t.draws, t.csmaStream.Rand().Float64())
		}
		if t.draws[i] < t.Params.Persist {
			return slot
		}
		t.losers = append(t.losers, slot)
	}
}

// replan re-plans a waiting t from its first grid slot at or after
// from. Planned losers before that slot stay planned; the draws of the
// rest go back to the front of the FIFO for the slots ahead. It
// returns the new wake instant; the caller moves the wake event.
func (t *Transceiver) replan(from sim.Time) sim.Time {
	slotTime := t.Params.slotTime()
	if d := from.Sub(t.slot); d > 0 {
		from = t.slot.Add((d + slotTime - 1) / slotTime * slotTime)
	} else {
		from = t.slot
	}
	kept := 0
	for kept < len(t.losers) && t.losers[kept] < from {
		kept++
	}
	return t.walk(from, kept)
}

// settle advances t.slot to at, a grid instant, counting every slot it
// passes as a deferral of the head frame, and retires the first k
// planned losers with their draws.
func (t *Transceiver) settle(at sim.Time, slotTime time.Duration, k int) {
	if d := at.Sub(t.slot); d > 0 {
		n := uint64(d / slotTime)
		t.Stats.CSMADeferrals += n
		t.frameDeferrals += n
	}
	t.slot = at
	t.draws = t.draws[:copy(t.draws, t.draws[k:])]
	t.losers = t.losers[:copy(t.losers, t.losers[k:])]
}

// settleLosers settles the plan through its last loser before now, as
// the per-slot path's decisions at those slots would have: the exits
// that are not a wake (ParamsChanged, Detach) leave what wakes fired
// there would have left.
func (t *Transceiver) settleLosers(now sim.Time, slotTime time.Duration) {
	k := 0
	for k < len(t.losers) && t.losers[k] < now {
		k++
	}
	if k > 0 {
		t.settle(t.losers[k-1].Add(slotTime), slotTime, k)
	}
}

// onSlot is the single contention decision point of the event-driven
// path, firing at the slot walk planned: one wake per transmission
// attempt.
func (t *Transceiver) onSlot() {
	t.wake = nil // one-shot pointer discipline: the event is spent
	// Settle the stretch the wake skipped: every grid slot in
	// [t.slot, now) was carrier-busy or lost its planned draw (key-ups
	// re-plan only what lies ahead of the new carrier, and early
	// release re-plans from the present), so each is one deferral the
	// per-slot path would have burned an event on.
	t.settle(t.ch.sched.Now(), t.Params.slotTime(), len(t.losers))
	if len(t.queue) == 0 {
		t.stopContention()
		return
	}
	// The wake sits on an idle slot whose draw wins: a carrier keyed up
	// since it was planned is not audible before dcdDelay, and every
	// other change to the carrier schedule or the parameters re-planned
	// it. The winning draw (full duplex takes none) leaves the FIFO.
	if !t.Params.FullDuplex {
		t.draws = t.draws[:copy(t.draws, t.draws[1:])]
	}
	t.stopContention()
	frame := t.popQueue()
	// frameDeferrals resets after the key-up so the tx-start trace hook
	// can report what this frame waited through.
	t.transmitFrame(frame, false)
	t.frameDeferrals = 0
}

// replanWaiters re-plans every waiter from the present after a change
// to the carrier schedule other than a key-up: an early release (a
// transmission cut by Retune) or a reachability flip. The first idle
// slot may now be sooner, or later, than the one the wake was parked
// on. Slots behind the current instant stay settled as they were
// decided — the cut carrier really did occupy them.
func (c *Channel) replanWaiters() {
	now := c.sched.Now()
	for _, u := range c.waiters {
		if u.wake == nil {
			continue
		}
		if w := u.replan(now); w != u.wake.When() {
			c.sched.Reschedule(u.wake, w)
		}
	}
}

// transmitFrame keys up frame, a buffer from the channel's list that
// the transmission now owns.
func (t *Transceiver) transmitFrame(frame []byte, control bool) {
	if t.TraceMAC != nil {
		t.TraceMAC("tx-start", frame, t.frameDeferrals)
	}
	c := t.ch
	now := c.sched.Now()
	dur := t.Params.TXDelay + c.AirTime(len(frame))
	tx, ok := c.txs.Get()
	if !ok {
		tx = new(transmission)
		tx.doneFn = func() { c.complete(tx) }
	}
	tx.sender, tx.frame, tx.control = t, frame, control
	tx.start, tx.end = now, now.Add(dur)
	t.transmitting = true
	t.txStart, t.txEnd = tx.start, tx.end
	if control {
		t.Stats.ControlSent++
		c.Stats.ControlFrames++
		c.Stats.ControlAirtime += dur
	} else {
		t.Stats.FramesSent++
	}
	t.Stats.Airtime += dur
	c.Stats.FramesStarted++
	c.Stats.Airtime += dur

	// Mark mutual damage with every already-active overlapping
	// transmission, at each receiver that can hear both senders.
	for _, other := range c.active {
		if !tx.overlaps(other) {
			continue
		}
		c.Stats.CollisionPairs++
		tx.overlapped, other.overlapped = true, true
		for _, r := range c.stations {
			hearsNew := c.reachable(t, r)
			hearsOld := c.reachable(other.sender, r)
			if hearsNew && hearsOld {
				tx.damage(r.seat)
				other.damage(r.seat)
			}
		}
	}
	c.active = append(c.active, tx)
	// Carrier edge: each access policy on the channel re-resolves the
	// stations it holds deferred (CSMA re-plans the parked waiters whose
	// planned slots the new carrier covers).
	for _, a := range c.accs {
		a.KeyUp(c, t)
	}
	tx.done = c.sched.At(tx.end, tx.doneFn)
}

func (c *Channel) complete(tx *transmission) {
	// Remove from active list.
	for i, a := range c.active {
		if a == tx {
			c.active = append(c.active[:i], c.active[i+1:]...)
			break
		}
	}
	sender := tx.sender
	sender.transmitting = false

	if walk, listeners, ok := c.addressed(tx); ok {
		c.deliverTo(walk, listeners, tx)
		c.release(tx)
		sender.acc.TxDone(sender)
		return
	}
	// Deliver to every station that can hear the sender.
	for _, r := range c.stations {
		if r == sender || !c.reachable(sender, r) {
			continue
		}
		collided := tx.damaged(r.seat)
		damaged := collided
		// Half duplex: a station whose own transmission overlapped
		// [tx.start, tx.end) missed the frame entirely — not even a
		// damaged copy is seen (its receiver was disconnected).
		if !r.Params.FullDuplex && r.txStart < tx.end && r.txEnd > tx.start {
			r.Stats.HalfDuplexMiss++
			if c.Tap != nil {
				c.Tap(sender, r, tx.frame, TapHalfDuplex, false)
			}
			continue
		}
		if !damaged && c.BitErrorRate > 0 {
			bits := float64((len(tx.frame) + 2) * 8)
			pSurvive := pow1m(c.BitErrorRate, bits)
			if r.noiseStream.Rand().Float64() >= pSurvive {
				damaged = true
			}
		}
		// The receiver's MAC gets first look: a consumed frame is
		// channel-access control (a DAMA poll) and never reaches the
		// host; an unwrapped one continues up with its payload.
		payload, consumed := r.acc.Deliver(r, tx.frame, damaged)
		if c.Tap != nil {
			outcome := TapOK
			if collided {
				outcome = TapCollision
			} else if damaged {
				outcome = TapNoise
			}
			c.Tap(sender, r, payload, outcome, consumed)
		}
		if consumed {
			continue
		}
		if damaged {
			r.Stats.FramesDamaged++
			c.Stats.FramesDamaged++
		} else {
			r.Stats.FramesHeard++
			c.Stats.FramesHeard++
		}
		if r.rx != nil {
			r.rx(shared(payload), damaged)
		}
	}

	c.release(tx)
	// Sender may have more queued traffic (or, polled, the rest of its
	// reserved turn).
	sender.acc.TxDone(sender)
}

// pow1m computes (1-ber)^bits without importing math for one call.
func pow1m(ber, bits float64) float64 {
	// exp(bits * ln(1-ber)) via the identity; for the small BERs used
	// in tests a simple iterative square-and-multiply on the binary
	// expansion would be overkill, so use the series through repeated
	// multiplication in chunks.
	p := 1.0
	base := 1 - ber
	n := int(bits)
	for n > 0 {
		if n&1 == 1 {
			p *= base
		}
		base *= base
		n >>= 1
	}
	return p
}
