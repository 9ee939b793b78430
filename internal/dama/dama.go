// Package dama implements demand-assigned polled channel access — the
// MAC that lifts delivery past the CSMA saturation knee E14's
// utilization column exposes (~25 stations per 1200 bps channel). Where p-persistent CSMA burns
// airtime on collisions once offered load crosses the channel's
// capacity, DAMA makes the channel collision-free by construction: one
// master per channel runs a demand-weighted round-robin poll list, and
// every other station transmits only inside the reserved slot a poll
// grants it. It is the same move real AX.25 networks made (DAMA
// masters coordinating slaves) and the same shape as coordinator-driven
// access on Wi-Fi APs.
//
// The protocol, all of it on the air (nothing travels by shared
// memory except the member roster, which models the network's
// configured frequency plan):
//
//   - The master POLLs one station; the polled station answers
//     immediately in its reserved slot — wrapped DATA frames (up to
//     burst per turn) or a short NONE if its queue is empty. Either
//     answer piggybacks the station's remaining queue depth, so demand
//     registration costs no extra transmissions.
//   - The master serves stations with reported demand round-robin
//     (staying in the ring until drained is what makes the rotation
//     demand-weighted), interleaving one discovery poll per
//     discoverEvery demand polls so new demand is found even under
//     load. An idle channel paces discovery with idleGap so polling
//     does not consume the channel it arbitrates.
//   - A poll that goes unanswered times out after the worst-case
//     response airtime; maxMisses consecutive timeouts idle the
//     station's demand so a dead or one-way link cannot wedge the poll
//     list (it keeps getting discovery polls, so a healed link
//     recovers).
//   - Mastership is elected by poll silence: every station arms a
//     timer of electionTimeout + rank·electionStep, where rank is the
//     station's position in the lexicographic order of member
//     callsigns, and resets it whenever it hears channel activity.
//     Silence therefore promotes the lowest station ID first — a
//     deterministic re-election when the master retunes away or fails
//     — and a master that hears a poll from a lower ID abdicates, so
//     duels collapse toward the lowest ID.
//
// The package plugs into the radio through radio.Accessor (DESIGN.md
// §3d): control frames are consumed below the TNC, wrapped data is
// unwrapped in Deliver, and the channel model (carrier, collisions,
// noise, reachability) is untouched — a poll lost to an asymmetric
// link is lost exactly the way a data frame would be.
package dama

import (
	"sort"
	"time"

	"packetradio/internal/radio"
	"packetradio/internal/sim"
)

const (
	// electionTimeout is the base poll-silence interval before the
	// lowest-ranked station assumes mastership.
	electionTimeout = 5 * time.Second
	// electionStep is the extra silence each successive rank waits, so
	// exactly one station self-elects per silent interval. It must
	// exceed one poll's airtime or two stations could elect back to
	// back.
	electionStep = 2 * time.Second
	// idleGap paces discovery polls when the channel has no reported
	// demand and the master no traffic.
	idleGap = time.Second
	// burst caps frames per reserved turn — the master's own traffic
	// obeys the same cap so a busy gateway cannot starve its slaves.
	burst = 4
	// maxFrame bounds one wrapped data frame's length and therefore
	// the poll-response timeout.
	maxFrame = 360
	// discoverEvery interleaves one discovery poll per this many demand
	// polls under load.
	discoverEvery = 4
	// maxMisses is how many consecutive unanswered polls idle a
	// station's demand.
	maxMisses = 3
)

// Stats counts controller-wide protocol events.
type Stats struct {
	Elections   uint64 // stations assuming mastership (incl. takeovers)
	Abdications uint64 // masters yielding to a lower station ID
	Demotions   uint64 // demand idled after maxMisses poll timeouts
}

// masterState is where a master sits in its poll cycle.
type mstate int

const (
	mNone    mstate = iota // not master
	mIdle                  // gap timer pending before the next poll
	mData                  // own data frame in flight
	mPollAir               // poll frame in flight
	mAwait                 // response window open for the polled station
)

// member is one station's protocol state. demand and misses are the
// acting master's view of the station; with a single master at a time
// (the normal case) keeping them here rather than per-master loses
// nothing, and a takeover inheriting the outgoing master's demand view
// only speeds its first cycle up.
type member struct {
	rf   *radio.Transceiver
	rank int // position in the lexicographic callsign order

	elect *sim.Event // slave: poll-silence election timer

	// Master-side state.
	master    bool
	state     mstate
	act       *sim.Event // the single pending master timer (gap or response window)
	rr        int        // demand round-robin cursor into members
	disc      int        // discovery rotation cursor into members
	polled    *member    // station holding the current reserved turn
	ownSent   int        // own frames sent this turn, capped at burst
	sinceDisc int        // demand polls since the last discovery poll

	// As seen by the acting master.
	demand uint16
	misses int

	// quiet counts consecutive polls (as master) that surfaced no
	// demand anywhere; once it covers the whole roster the channel is
	// genuinely idle and discovery drops to idleGap pacing. Any sign
	// of demand resets it, so cold start and re-discovery sweep the
	// roster back to back instead of one station per gap.
	quiet int

	// Slave-side reserved-turn state.
	budget int // frames remaining in the current polled turn

	// The member's timer callbacks, built once at Join so arming a
	// timer never builds a closure: the election timer, a deferred
	// step, the paced discovery poll of gapTarget, and the response
	// window's timeout.
	electFn, stepFn, gapFn, timeoutFn func()
	gapTarget                         *member
}

// Controller runs DAMA for one radio channel. It implements
// radio.Accessor; every member station installs it with Join.
type Controller struct {
	Stats Stats

	// Trace, when non-nil, observes protocol transitions for the
	// flight recorder: events are "master", "abdicate", "poll",
	// "poll-timeout", "demote"; who is the station concerned. Purely
	// read-side — the callback must not touch the controller.
	Trace func(event, who string)

	ch    *radio.Channel
	sched *sim.Scheduler

	members []*member // registration order — the poll rotation order
	byRF    map[*radio.Transceiver]*member
	names   map[string]*member // callsign index for Deliver's src lookups

	// wire is the scratch every control and wrapped data frame is
	// encoded into; TransmitMAC copies it before keying up.
	wire []byte
}

var _ radio.Accessor = (*Controller)(nil)

// New creates a controller for ch. Stations opt in with Join.
func New(ch *radio.Channel) *Controller {
	return &Controller{
		ch:    ch,
		sched: ch.Scheduler(),
		byRF:  make(map[*radio.Transceiver]*member),
		names: make(map[string]*member),
	}
}

// Join enrolls a transceiver on the controller's channel: its accessor
// becomes the controller and its election timer arms. A station joining
// mid-CSMA-contention (a mobile returning to a polled channel) has its
// edge-driven deferral retired first; queued frames then wait for a
// poll like any other demand.
func (c *Controller) Join(t *radio.Transceiver) {
	if t.Channel() != c.ch {
		panic("dama: Join of a transceiver tuned elsewhere")
	}
	if c.byRF[t] != nil {
		return
	}
	if t.AccessPending() {
		t.Accessor().Detach(t)
	}
	m := c.newMember(t)
	c.members = append(c.members, m)
	c.byRF[t] = m
	c.names[t.Name] = m
	t.SetAccessor(c)
	c.recomputeRanks()
	if t.QueueLen() > 0 && !t.AccessPending() {
		c.Start(t)
	}
}

// newMember builds t's protocol state with its timer callbacks.
func (c *Controller) newMember(t *radio.Transceiver) *member {
	m := &member{rf: t}
	m.electFn = func() {
		m.elect = nil
		c.becomeMaster(m)
	}
	m.stepFn = func() {
		m.act = nil
		c.step(m)
	}
	m.gapFn = func() {
		m.act = nil
		disc := m.gapTarget
		m.gapTarget = nil
		if !m.master {
			return
		}
		if c.byRF[disc.rf] == disc {
			c.sendPoll(m, disc)
		} else {
			// The captured member left (or left and re-Joined as a
			// fresh entry) during the gap; re-decide against the
			// current roster rather than poll an orphan.
			c.step(m)
		}
	}
	m.timeoutFn = func() {
		m.act = nil
		c.pollTimeout(m)
	}
	return m
}

// Master returns the transceiver currently acting as channel master,
// or nil during an election.
func (c *Controller) Master() *radio.Transceiver {
	for _, m := range c.members {
		if m.master {
			return m.rf
		}
	}
	return nil
}

// Members reports the roster size.
func (c *Controller) Members() int { return len(c.members) }

// PendingTimers reports how many controller timers are armed — the
// poll-list leak check: at most one election timer per slave and one
// action timer per master may be live.
func (c *Controller) PendingTimers() int {
	n := 0
	for _, m := range c.members {
		if m.elect != nil {
			n++
		}
		if m.act != nil {
			n++
		}
	}
	return n
}

// recomputeRanks re-sorts the roster by callsign and re-arms every
// slave's election timer against its new rank. Runs on every Join and
// Leave: membership is configuration, and pushing all deadlines out on
// a change keeps the "one self-election per silent interval" spacing
// intact.
func (c *Controller) recomputeRanks() {
	byName := append([]*member(nil), c.members...)
	sort.SliceStable(byName, func(i, j int) bool { return byName[i].rf.Name < byName[j].rf.Name })
	for rank, m := range byName {
		m.rank = rank
		if !m.master {
			c.resetElect(m)
		}
	}
}

// electDeadline is m's poll-silence allowance: rank-staggered so the
// lowest callsign moves first and hears no competitor. The base is
// floored at the longest silence a healthy cycle can produce — a dead
// station's turn (poll airtime + full response timeout + idle gap) —
// or a slave watching the master time out on a one-way link would
// mistake the wait for master death and start a duel. (The floor uses
// m's own key-up delay as the estimate for everyone's, which holds in
// uniformly configured networks.)
func (c *Controller) electDeadline(m *member) time.Duration {
	floor := c.respWindow(m) + idleGap + m.rf.Params.TXDelay +
		c.ch.AirTime(32) + 500*time.Millisecond
	base := electionTimeout
	if base < floor {
		base = floor
	}
	return base + time.Duration(m.rank)*electionStep
}

// resetElect re-arms (or arms) m's election timer — called whenever m
// hears evidence of a live master.
func (c *Controller) resetElect(m *member) {
	if m.master {
		return
	}
	when := c.sched.Now().Add(c.electDeadline(m))
	if m.elect != nil {
		c.sched.Reschedule(m.elect, when)
		return
	}
	m.elect = c.sched.At(when, m.electFn)
}

func (c *Controller) becomeMaster(m *member) {
	if m.master {
		return
	}
	if m.elect != nil {
		c.sched.Cancel(m.elect)
		m.elect = nil
	}
	m.master = true
	m.state = mIdle
	m.ownSent, m.sinceDisc = 0, 0
	// Fresh mastership, fresh view: a quiet count inherited from an
	// earlier reign would gap-pace the takeover sweep, and a leftover
	// slave-turn budget belongs to a poll that no longer stands.
	m.quiet, m.budget = 0, 0
	c.Stats.Elections++
	c.trace("master", m.rf.Name)
	if m.rf.Transmitting() {
		// Elected mid-own-transmission (possible only for a station
		// that was just polled): pick the cycle up at TxDone.
		m.state = mData
		return
	}
	c.step(m)
}

// abdicate demotes a master that heard a lower-ID competitor.
func (c *Controller) abdicate(m *member) {
	m.master = false
	m.state = mNone
	m.polled = nil
	if m.act != nil {
		c.sched.Cancel(m.act)
		m.act = nil
	}
	c.Stats.Abdications++
	c.trace("abdicate", m.rf.Name)
	c.resetElect(m)
}

// trace reports a protocol transition to the Trace hook, if any.
func (c *Controller) trace(event, who string) {
	if c.Trace != nil {
		c.Trace(event, who)
	}
}

// step is the master's scheduling decision point: own data first (up
// to burst), then the demand ring, then paced discovery.
func (c *Controller) step(m *member) {
	if !m.master {
		return
	}
	if m.rf.Transmitting() {
		m.state = mData // resume at TxDone
		return
	}
	if !m.rf.Params.FullDuplex && m.rf.CarrierSense() {
		// Another carrier is up — a dueling master, or a response
		// running past its window. Defer the whole decision beyond it,
		// rank-staggered: of two masters colliding in lockstep, the
		// higher rank always backs off further, hears the lower's next
		// poll intact, and abdicates — duels cannot persist.
		m.state = mIdle
		m.act = c.sched.After(200*time.Millisecond+time.Duration(m.rank)*100*time.Millisecond, m.stepFn)
		return
	}
	if m.rf.QueueLen() > 0 && m.ownSent < burst {
		if f, ok := m.rf.Head(); ok {
			m.ownSent++
			m.state = mData
			if m.rf.TransmitMAC(f, false) {
				m.rf.DropHead()
			}
			return
		}
	}
	m.ownSent = 0
	if m.rf.QueueLen() == 0 {
		m.rf.SetAccessPending(false)
	}
	dem := c.nextDemand(m)
	if dem != nil && m.sinceDisc < discoverEvery {
		m.sinceDisc++
		c.sendPoll(m, dem)
		return
	}
	m.sinceDisc = 0
	disc := c.nextDiscovery(m)
	switch {
	case disc != nil && (dem != nil || m.quiet < len(c.members)-1):
		// Something is (or may be) pending — known demand elsewhere,
		// or the roster has not yet answered one full sweep of polls
		// with silence: discovery rides back to back, so cold start
		// and re-discovery cost one sweep, not one station per gap.
		c.sendPoll(m, disc)
	case dem != nil:
		c.sendPoll(m, dem)
	case disc != nil:
		// A whole roster's worth of consecutive polls found nothing:
		// the channel is idle, pace the scan so arbitration does not
		// consume the medium it arbitrates.
		m.state = mIdle
		m.gapTarget = disc
		m.act = c.sched.After(idleGap, m.gapFn)
	default:
		// Alone on the roster: idle until membership or traffic changes.
		m.state = mIdle
		m.act = c.sched.After(idleGap, m.stepFn)
	}
}

// nextDemand scans the roster round-robin for the next pollable
// station with reported demand.
func (c *Controller) nextDemand(m *member) *member {
	n := len(c.members)
	for k := 1; k <= n; k++ {
		i := (m.rr + k) % n
		s := c.members[i]
		if s == m || s.demand == 0 || s.misses >= maxMisses {
			continue
		}
		m.rr = i
		return s
	}
	return nil
}

// nextDiscovery scans the roster round-robin for the next station with
// no reported demand — including demoted ones, so a healed link is
// re-found at discovery cadence.
func (c *Controller) nextDiscovery(m *member) *member {
	n := len(c.members)
	for k := 1; k <= n; k++ {
		i := (m.disc + k) % n
		s := c.members[i]
		if s == m || (s.demand > 0 && s.misses < maxMisses) {
			continue
		}
		m.disc = i
		return s
	}
	return nil
}

func (c *Controller) sendPoll(m, s *member) {
	m.state = mPollAir
	m.polled = s
	c.wire = encodePoll(c.wire[:0], m.rf.Name, s.rf.Name)
	if !m.rf.TransmitMAC(c.wire, true) {
		// Radio busy (a dueling-master overlap): retry after a gap.
		m.state = mIdle
		m.polled = nil
		m.act = c.sched.After(idleGap, m.stepFn)
		return
	}
	m.rf.Stats.PollsSent++
	c.trace("poll", s.rf.Name)
}

// respWindow is the worst-case wait for one response frame from s:
// its key-up delay plus a maximum frame's airtime plus slack for the
// carrier-detect edge.
func (c *Controller) respWindow(s *member) time.Duration {
	return s.rf.Params.TXDelay + c.ch.AirTime(maxFrame+dataHdrLen(s.rf.Name)) + 100*time.Millisecond
}

func (c *Controller) pollTimeout(m *member) {
	if !m.master || m.state != mAwait {
		return
	}
	m.rf.Stats.PollTimeouts++
	m.quiet++
	if s := m.polled; s != nil {
		c.trace("poll-timeout", s.rf.Name)
		s.misses++
		if s.misses == maxMisses && s.demand > 0 {
			s.demand = 0
			c.Stats.Demotions++
			c.trace("demote", s.rf.Name)
		}
		m.polled = nil
	}
	c.step(m)
}

// slaveRespond transmits the next frame of m's reserved turn: wrapped
// data with piggybacked demand, or NONE when the queue is empty.
func (c *Controller) slaveRespond(m *member) {
	f, ok := m.rf.Head()
	if !ok {
		m.budget = 0
		m.rf.SetAccessPending(false)
		c.wire = encodeNone(c.wire[:0], m.rf.Name)
		m.rf.TransmitMAC(c.wire, true)
		return
	}
	m.budget--
	remaining := m.rf.QueueLen() - 1 // behind the frame going out
	last := m.budget == 0 || remaining == 0
	if last {
		// The turn ends by declaration, not by leftover budget: if the
		// host refills the queue before this frame's TxDone, the new
		// demand must wait for the next poll — continuing here would
		// transmit into a turn the master already concluded.
		m.budget = 0
	}
	d := remaining
	if d > 0xffff {
		d = 0xffff
	}
	c.wire = encodeData(c.wire[:0], m.rf.Name, uint16(d), last, f)
	if m.rf.TransmitMAC(c.wire, false) {
		m.rf.DropHead()
	} else {
		m.budget = 0
	}
}

// --- radio.Accessor -----------------------------------------------------

// Start is Send-time admission: a slave's frame waits for its poll; a
// gap-idling master jumps the gap.
func (c *Controller) Start(t *radio.Transceiver) {
	m := c.byRF[t]
	if m == nil {
		// Not on the roster (accessor installed by hand): fall back to
		// CSMA semantics rather than wedge the frame.
		t.SetAccessor(radio.CSMAAccessor())
		t.Accessor().Start(t)
		return
	}
	t.SetAccessPending(true)
	if m.master && m.state == mIdle {
		if m.act != nil {
			c.sched.Cancel(m.act)
			m.act = nil
		}
		c.step(m)
	}
}

// TxDone resumes the protocol when one of our transmissions ends.
func (c *Controller) TxDone(t *radio.Transceiver) {
	m := c.byRF[t]
	if m == nil {
		return
	}
	if m.master {
		switch m.state {
		case mData:
			c.step(m)
		case mPollAir:
			s := m.polled
			if s == nil {
				// The polled station retuned away while the poll was in
				// the air; nobody will answer, move on.
				c.step(m)
				return
			}
			m.state = mAwait
			// The rank stagger keeps two deterministic masters' timeout
			// instants apart, so the carrier-sense defer in step can
			// see the other's poll instead of sharing its key-up
			// instant (same-instant key-ups are inside the DCD window
			// and invisible to each other).
			window := c.respWindow(s) + time.Duration(m.rank)*50*time.Millisecond
			m.act = c.sched.After(window, m.timeoutFn)
		}
		return
	}
	// Slave: our own completed transmission is part of a reserved turn
	// a live master granted — evidence as good as hearing a poll, and
	// necessary: half-duplex, we hear nothing while bursting, and a
	// multi-frame turn of maximum frames can outlast the election
	// deadline. Re-arm before continuing.
	c.resetElect(m)
	// Continue the reserved turn while budget remains.
	if m.budget > 0 && t.QueueLen() > 0 {
		c.slaveRespond(m)
		return
	}
	m.budget = 0
	if t.QueueLen() == 0 {
		t.SetAccessPending(false)
	}
}

// Detach removes a retuning member from the roster and hands its
// transceiver back to CSMA for whatever channel it lands on.
func (c *Controller) Detach(t *radio.Transceiver) {
	m := c.byRF[t]
	if m == nil {
		return
	}
	if m.elect != nil {
		c.sched.Cancel(m.elect)
		m.elect = nil
	}
	if m.act != nil {
		c.sched.Cancel(m.act)
		m.act = nil
	}
	m.master = false
	m.state = mNone
	m.budget = 0
	for i, x := range c.members {
		if x != m {
			continue
		}
		c.members = append(c.members[:i], c.members[i+1:]...)
		// Keep every master-side cursor on the element it pointed at.
		for _, o := range c.members {
			if o.rr >= i && o.rr > 0 {
				o.rr--
			}
			if o.disc >= i && o.disc > 0 {
				o.disc--
			}
			if o.polled == m {
				// The response window times out on its own; just drop
				// the pointer so the miss lands nowhere.
				o.polled = nil
			}
		}
		break
	}
	delete(c.byRF, t)
	if c.names[t.Name] == m {
		delete(c.names, t.Name)
	}
	t.SetAccessPending(false)
	t.SetAccessor(radio.CSMAAccessor())
	c.recomputeRanks()
}

// ParamsChanged does nothing: DAMA holds no state computed against
// KISS parameters (the response window reads Params live), so nothing
// re-anchors.
func (c *Controller) ParamsChanged(*radio.Transceiver, radio.Params) {}

// KeyUp does nothing: DAMA stations never sit deferred against the
// carrier schedule — admission is the poll, not carrier sense.
func (c *Controller) KeyUp(*radio.Channel, *radio.Transceiver) {}

// CarrierChanged does nothing, for the reason KeyUp does nothing.
func (c *Controller) CarrierChanged(*radio.Channel) {}

// Deliver classifies every frame a member hears. Any activity is
// evidence of a live master and re-arms the election timer; polls and
// NONEs are consumed below the TNC; wrapped data is unwrapped and
// passed up.
func (c *Controller) Deliver(t *radio.Transceiver, frame []byte, damaged bool) ([]byte, bool) {
	m := c.byRF[t]
	if m == nil {
		return frame, false
	}
	c.resetElect(m)
	kind, src, dst, demand, last, payload, ok := decode(frame)
	if !ok {
		// Unwrapped traffic: the master's own data (or a non-DAMA
		// station sharing the frequency). If we are the acting master,
		// an unexpected station transmitting data is not our concern —
		// only polls contest mastership.
		return frame, false
	}
	if damaged {
		// Damage is decided at the receiver, so the content is not
		// trustworthy protocol input: wrapped data still surfaces (the
		// TNC counts the CRC error exactly as under CSMA); control
		// frames vanish and the response window absorbs the loss.
		if kind == kData {
			return payload, false
		}
		return nil, true
	}
	s := c.byName(src)
	switch kind {
	case kPoll:
		if m.master && string(src) < m.rf.Name {
			c.abdicate(m)
		}
		// misses is the acting master's view of this member; only the
		// master writes it (timeouts up, heard frames down).
		if string(dst) == t.Name && !m.master {
			t.Stats.PollsHeard++
			m.budget = burst
			c.slaveRespond(m)
		}
		return nil, true
	case kNone, kData:
		if m.master {
			if s != nil {
				s.demand = demand
				s.misses = 0
			}
			if kind == kData || demand > 0 {
				m.quiet = 0 // the channel is carrying traffic
			} else if m.state == mAwait && s == m.polled {
				m.quiet++
			}
			if m.state == mAwait && m.polled != nil && s == m.polled {
				if kind == kNone || last {
					if m.act != nil {
						c.sched.Cancel(m.act)
						m.act = nil
					}
					m.polled = nil
					c.step(m)
				} else if m.act != nil {
					// Mid-burst: extend the window one frame.
					c.sched.Reschedule(m.act, c.sched.Now().Add(c.respWindow(s)))
				}
			}
		}
		if kind == kData {
			return payload, false
		}
		return nil, true
	}
	return nil, true
}

// byName resolves a heard callsign; a map, not a roster scan — Deliver
// runs once per receiver per frame, the simulator's hottest path on
// the 100+-station single-channel worlds this MAC exists for. The
// lookup converts name without copying it.
func (c *Controller) byName(name []byte) *member { return c.names[string(name)] }
