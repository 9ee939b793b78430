package radio

// perSlotCSMA is the seed's polling p-persistent CSMA, kept as the
// oracle the event-driven contention engine (DESIGN.md §3c) is held
// to: a deferred transmitter wakes once per SlotTime, senses the
// carrier and, on an idle slot, takes one persistence draw from its
// csmaStream. It plugs in through the Accessor seam, as DAMA does, so
// production code carries no second contention path. usePerSlot
// installs it.
//
// Its state is the transceiver's own contending flag and
// frameDeferrals; it never joins the channel wait-list, so the
// carrier-edge hooks have nothing to re-plan.
type perSlotCSMA struct{}

var perSlotAccessor Accessor = &perSlotCSMA{}

// usePerSlot switches rf from the event-driven CSMA it got at Attach
// to the per-slot oracle. Call it while rf is idle.
func usePerSlot(rf *Transceiver) { rf.SetAccessor(perSlotAccessor) }

func (a *perSlotCSMA) Start(t *Transceiver) {
	t.contending = true
	t.ch.sched.At(t.ch.sched.Now(), func() { a.contend(t) })
}

func (a *perSlotCSMA) TxDone(t *Transceiver) {
	if len(t.queue) > 0 && !t.contending {
		a.Start(t)
	}
}

// Detach keeps the scheduled poll: it fires on whatever channel t is
// tuned to by then, as the seed's did.
func (*perSlotCSMA) Detach(*Transceiver) {}

// ParamsChanged has nothing to re-anchor: each poll reads t.Params.
func (*perSlotCSMA) ParamsChanged(*Transceiver, Params) {}

func (*perSlotCSMA) Deliver(_ *Transceiver, frame []byte, _ bool) ([]byte, bool) {
	return frame, false
}

func (*perSlotCSMA) KeyUp(*Channel, *Transceiver) {}

func (*perSlotCSMA) CarrierChanged(*Channel) {}

// contend is one slot of the polling loop: transmit on an idle slot
// whose draw wins, else count a deferral and poll again one SlotTime
// later.
func (a *perSlotCSMA) contend(t *Transceiver) {
	if len(t.queue) == 0 {
		t.contending = false
		return
	}
	p := t.Params
	if !p.FullDuplex && (t.CarrierSense() || t.csmaStream.Rand().Float64() >= p.Persist) {
		t.Stats.CSMADeferrals++
		t.frameDeferrals++
		t.ch.sched.After(p.slotTime(), func() { a.contend(t) })
		return
	}
	t.contending = false
	t.transmitFrame(t.popQueue(), false)
	t.frameDeferrals = 0
}
