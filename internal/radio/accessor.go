// The pluggable channel-access seam (DESIGN.md §3d): everything that
// decides *when* a queued frame may key up — and what a received frame
// means to the MAC before the host sees it — lives behind Accessor, so
// the p-persistent CSMA the paper's TNCs spoke and the DAMA polled
// access that lifts its saturation knee are interchangeable policies
// over the same physical channel model. The CSMA implementation keeps
// its state on Transceiver/Channel exactly where the pre-seam code put
// it; csmaAccessor below is a stateless dispatcher into it, so the
// event sequence (and therefore every deterministic counter the CI
// gate pins) is bit-identical to the pre-seam code.

package radio

import (
	"packetradio/internal/pool"
	"packetradio/internal/sim"
)

// Accessor is one channel-access (MAC) policy. A Transceiver holds
// exactly one accessor (CSMA by default, installed at Attach); a
// policy with shared per-channel state — DAMA's poll master — hands
// every station on the channel the same instance. All methods run
// inside the scheduler's event loop.
type Accessor interface {
	// Start begins admission for t's head-of-queue frame. Called by
	// Send when a frame is queued on an idle, non-pending transceiver,
	// and by Retune when queued frames migrate to a new channel. The
	// accessor owns the decision from here until it transmits the
	// frame or Detach retires it; it must set AccessPending while the
	// decision is outstanding so Send does not re-enter.
	Start(t *Transceiver)

	// TxDone fires when t's own transmission completes (end of frame,
	// carrier released). The CSMA accessor restarts contention for any
	// remaining queue; DAMA continues the poll turn.
	TxDone(t *Transceiver)

	// Detach retires any pending access state for t, which is leaving
	// its channel (Retune). After Detach the accessor must hold no
	// timers, wait-list entries or registry state for t.
	Detach(t *Transceiver)

	// ParamsChanged runs after t.Params was replaced (a KISS parameter
	// frame landing mid-defer, pushed down through tnc.applyParams) so
	// the policy can re-anchor state computed against the old values.
	ParamsChanged(t *Transceiver, old Params)

	// Deliver gives the MAC first look at every frame arriving at t,
	// after collision/noise damage is decided but before counters and
	// the receive callback. It returns the payload to pass up and
	// false, or consumed=true to swallow a MAC-level control frame
	// (polls never reach the TNC). The frame slice is shared — slice
	// it, do not mutate it.
	Deliver(t *Transceiver, frame []byte, damaged bool) (payload []byte, consumed bool)

	// KeyUp is the channel-wide carrier-edge hook: sender just keyed
	// up on c. The CSMA accessor re-plans the parked waiters whose
	// planned slots the new carrier now covers.
	KeyUp(c *Channel, sender *Transceiver)

	// CarrierChanged is the other carrier-schedule edge: an early
	// release (a transmission cut by Retune) or a reachability change
	// under an active carrier. Deferred decisions computed against the
	// old schedule re-resolve here.
	CarrierChanged(c *Channel)
}

// csma is the default accessor: the event-driven p-persistent CSMA of
// DESIGN.md §3c. One instance serves every transceiver — all its state lives on the
// Transceiver (slot grid, wake event, planned draws) and the Channel
// (wait-list).
var csma Accessor = &csmaAccessor{}

type csmaAccessor struct{}

func (csmaAccessor) Start(t *Transceiver) { t.startContention() }

func (csmaAccessor) TxDone(t *Transceiver) {
	if len(t.queue) > 0 && !t.contending {
		t.startContention()
	}
}

func (csmaAccessor) Detach(t *Transceiver) {
	// Migrate a pending event-driven deferral: off the wait-list, wake
	// cancelled, so contention restarts cleanly on the next channel. The
	// planned losers before now were decided and settle as their slots'
	// wakes would have; the busy stretch after the last one is not
	// counted, and the remaining draws stay in the FIFO for the next
	// channel.
	if t.wake != nil {
		t.settleLosers(t.ch.sched.Now(), t.Params.slotTime())
		t.losers = t.losers[:0]
		t.ch.removeWaiter(t)
		t.ch.sched.Cancel(t.wake)
		t.wake = nil
		t.contending = false
	}
}

func (csmaAccessor) ParamsChanged(t *Transceiver, old Params) {
	// Mid-defer, the pending wake, its planned losers and the
	// settlement arithmetic were computed against the old slot grid:
	// settle the plan through its last loser before now, then count the
	// old-grid slots still before now, and re-anchor contention on the
	// new parameters at the current instant. The planned draws not yet
	// settled stay in the FIFO, to be judged against the new
	// persistence. Idle (wake == nil), the field write alone was enough.
	if t.wake == nil {
		return
	}
	now := t.ch.sched.Now()
	oldSlot := old.slotTime()
	t.settleLosers(now, oldSlot)
	if d := now.Sub(t.slot); d > 0 {
		// Ceiling division: every old-grid instant strictly before now
		// passed under busy carrier (the settled-deferral invariant).
		t.Stats.CSMADeferrals += uint64((d + oldSlot - 1) / oldSlot)
	}
	t.slot = now
	t.ch.sched.Cancel(t.wake)
	t.wake = t.ch.sched.At(t.walk(now, 0), t.onSlotFn)
}

func (csmaAccessor) Deliver(_ *Transceiver, frame []byte, _ bool) ([]byte, bool) {
	return frame, false // CSMA has no MAC-level control traffic
}

func (csmaAccessor) KeyUp(c *Channel, sender *Transceiver) {
	// Carrier edge: the new carrier is audible from cut on. A waiter
	// whose wake comes earlier keeps its plan; any other keeps its
	// planned losers before cut and re-plans the slots from cut on,
	// which the new carrier may have turned busy (so the wake never
	// moves earlier, and the settled-deferral invariant holds).
	cut := c.sched.Now().Add(dcdDelay)
	for _, u := range c.waiters {
		if u == sender || u.wake == nil {
			continue
		}
		w := u.wake.When()
		if w < cut {
			continue
		}
		if nw := u.replan(cut); nw != w {
			c.sched.Reschedule(u.wake, nw)
		}
	}
}

func (csmaAccessor) CarrierChanged(c *Channel) { c.replanWaiters() }

// --- accessor bookkeeping on the channel --------------------------------

// addAccessor notes one more station on c using accessor a; the first
// reference puts a on the channel's hook list (in arrival order, so
// hook dispatch is deterministic).
func (c *Channel) addAccessor(a Accessor) {
	if c.accRef == nil {
		c.accRef = make(map[Accessor]int)
	}
	if c.accRef[a] == 0 {
		c.accs = append(c.accs, a)
	}
	c.accRef[a]++
}

// dropAccessor releases one reference; the last reference removes a
// from the hook list.
func (c *Channel) dropAccessor(a Accessor) {
	if c.accRef[a]--; c.accRef[a] > 0 {
		return
	}
	delete(c.accRef, a)
	for i, x := range c.accs {
		if x == a {
			c.accs = append(c.accs[:i], c.accs[i+1:]...)
			return
		}
	}
}

// SetAccessor installs a channel-access policy on t, replacing the
// default CSMA (a DAMA controller installs itself on Join). Swap
// policies only while t is idle — a pending admission decision belongs
// to the old accessor; Detach it first.
func (t *Transceiver) SetAccessor(a Accessor) {
	if a == nil || a == t.acc {
		return
	}
	if t.ch != nil {
		// Only a CSMA station is left out of frames (Listen): settle
		// what it passed by under the old policy.
		t.fold()
		t.ch.dropAccessor(t.acc)
		t.ch.addAccessor(a)
	}
	t.acc = a
}

// Accessor reports t's channel-access policy.
func (t *Transceiver) Accessor() Accessor { return t.acc }

// CSMAAccessor returns the default p-persistent CSMA policy — what a
// departing DAMA member falls back to when it leaves its controller's
// channel.
func CSMAAccessor() Accessor { return csma }

// --- accessor-facing surface on channel and transceiver -----------------

// Scheduler exposes the channel's event scheduler to channel-access
// policies (DAMA's poll and election timers live there).
func (c *Channel) Scheduler() *sim.Scheduler { return c.sched }

// AccessPending reports whether the accessor currently owns an
// admission decision for t's head-of-queue frame.
func (t *Transceiver) AccessPending() bool { return t.contending }

// SetAccessPending marks or clears the outstanding-decision flag; an
// accessor sets it in Start and clears it when the queue drains (the
// CSMA accessor manages it through startContention/stopContention).
func (t *Transceiver) SetAccessPending(b bool) { t.contending = b }

// Head returns t's head-of-queue frame, for an accessor that
// transmits it (possibly wrapped in a MAC header) via TransmitMAC. The
// frame stays queued, and its bytes valid, until DropHead.
func (t *Transceiver) Head() ([]byte, bool) {
	if len(t.queue) == 0 {
		return nil, false
	}
	return t.queue[0], true
}

// DropHead retires t's head-of-queue frame once TransmitMAC has keyed
// up its copy; its buffer goes back to the channel's list.
func (t *Transceiver) DropHead() { t.ch.frames.Put(t.popQueue()) }

// Transmitting reports whether t currently has a frame keyed up.
func (t *Transceiver) Transmitting() bool { return t.transmitting }

// TransmitMAC keys up a copy of a MAC-originated frame immediately,
// bypassing admission — the accessor asserts it owns the channel schedule (a
// DAMA master's poll, or a polled slave's reserved response slot).
// control marks pure control frames (polls, no-traffic responses) for
// the channel's overhead accounting; wrapped data frames pass false so
// they count as data. Returns false, transmitting nothing, if t is
// already keyed up — a policy bug or a dueling-masters race, not worth
// wedging the simulation over. The copy comes from the channel's list,
// as Send's does, so the caller may reuse its buffer.
func (t *Transceiver) TransmitMAC(frame []byte, control bool) bool {
	if t.transmitting {
		return false
	}
	t.transmitFrame(pool.Copy(&t.ch.frames, frame), control)
	return true
}
