// Hearing only the addressees (DESIGN.md §3b): on a channel whose
// receivers filter by link address, most receptions of a unicast frame
// end in a filter that throws the frame away — the paper's §3 KISS TNC
// filter. The channel learns each frame's destination once, from a
// Classifier, and walks only the receivers that take it; every other
// receiver's reception is settled in bulk, as a count, never as a
// callback. What each receiver ends up with — counters, callbacks,
// their order and instants — is what the full walk gives it.

package radio

// Classifier names the receivers that take a frame: it returns the
// frame's destination as an opaque key, the one a receiver registers
// with Listen, or everyone=true for a frame every receiver takes (a
// group address, a bad FCS, bytes that do not decode). It runs at most
// once per transmission, before any receiver, so it must not draw
// randomness, schedule events or change any receiver.
type Classifier func(c *Channel, frame []byte) (key uint64, everyone bool)

// Listen registers t as a receiver of only the frames the channel's
// Classify assigns to key or to everyone. The contract is on t's
// receive callback: it must discard every other intact frame with no
// effect but counting it, because the channel stops handing it those.
// The channel counts them instead, in FramesHeard and Passed, which is
// how a filtering receiver (tnc.TNC) settles its own discard count.
// SetReceiver keeps the registration. Only a receiver using the default
// CSMA access policy is left out of frames: under any other policy
// (DAMA) the MAC must see every frame, so t takes everything.
func (t *Transceiver) Listen(key uint64) {
	t.fold()
	t.keyed, t.key = true, key
}

// ListenAll undoes Listen: t takes every frame it hears, the default.
func (t *Transceiver) ListenAll() {
	t.fold()
	t.keyed = false
}

// listening reports whether t is left out of frames classified to
// other keys.
func (t *Transceiver) listening() bool { return t.keyed && t.acc == csma }

// fold settles t's bystander count on its channel into passed and
// rebases it, ahead of anything that changes whether, or for what, t
// listens; the channel's index is rebuilt on its next use.
func (t *Transceiver) fold() {
	c := t.ch
	if t.listening() {
		t.passed += c.bulk - t.heardMark - t.heardSeen
	}
	t.heardMark, t.heardSeen = c.bulk, 0
	c.idx = nil
}

// Passed reports the frames t heard intact that the channel settled in
// bulk instead of handing them to t: frames classified to another key
// while t listened for its own.
func (t *Transceiver) Passed() uint64 {
	n := t.passed
	if t.listening() {
		n += t.ch.bulk - t.heardMark - t.heardSeen
	}
	return n
}

// FramesHeard reports the frames t received intact: Stats.FramesHeard,
// which counts those handed to t, plus Passed.
func (t *Transceiver) FramesHeard() uint64 { return t.Stats.FramesHeard + t.Passed() }

// FramesHeard reports the channel's intact receptions:
// Stats.FramesHeard plus those the addressee walk settled in bulk.
func (c *Channel) FramesHeard() uint64 { return c.Stats.FramesHeard + c.passed }

// addressees is a channel's receiver index.
type addressees struct {
	all       []*Transceiver            // the receivers that take everything, in station order
	byKey     map[uint64][]*Transceiver // all and each key's listeners, merged in station order
	listeners int                       // receivers listening for a key
}

// index returns c's receiver index, rebuilding it after a change. A
// rebuild makes new slices, so a walk in progress keeps its own.
func (c *Channel) index() *addressees {
	if c.idx != nil {
		return c.idx
	}
	x := &addressees{byKey: make(map[uint64][]*Transceiver)}
	for _, t := range c.stations {
		if t.listening() {
			x.listeners++
			x.byKey[t.key] = nil
		}
	}
	for _, t := range c.stations {
		if t.listening() {
			x.byKey[t.key] = append(x.byKey[t.key], t)
			continue
		}
		x.all = append(x.all, t)
		for k, walk := range x.byKey {
			x.byKey[k] = append(walk, t)
		}
	}
	c.idx = x
	return x
}

// addressed returns the receivers tx goes to, and how many listeners
// the channel has, when the addressee walk can stand in for the full
// one. It returns false when it cannot: with a bit-error rate (every
// receiver draws from its own noise stream), a pair that cannot hear
// the other, an overlap (some copies collided or were missed half
// duplex), no listener, or a frame for everyone. Then the full walk
// runs, as without a Classify.
func (c *Channel) addressed(tx *transmission) (walk []*Transceiver, listeners int, ok bool) {
	if c.Classify == nil || c.BitErrorRate > 0 || c.deaf > 0 || tx.overlapped {
		return nil, 0, false
	}
	x := c.index()
	if x.listeners == 0 {
		return nil, 0, false
	}
	key, everyone := c.Classify(c, tx.frame)
	if everyone {
		return nil, 0, false
	}
	if walk, ok := x.byKey[key]; ok {
		return walk, x.listeners, true
	}
	return x.all, x.listeners, true
}

// deliverTo is the addressee walk: every receiver tx reaches hears it
// intact, walk's in station order as the full walk would hand it over,
// and tapped as it is handed the frame; every other listener's
// reception is settled in bulk, untapped. The settlement is done
// before the first callback, so a callback that changes a registration
// folds a settled count.
func (c *Channel) deliverTo(walk []*Transceiver, listeners int, tx *transmission) {
	sender := tx.sender
	c.bulk++
	bystanders := uint64(listeners)
	if sender.listening() {
		sender.heardSeen++
		bystanders--
	}
	for _, r := range walk {
		if r != sender && r.listening() {
			r.heardSeen++
			bystanders--
		}
	}
	c.passed += bystanders
	for _, r := range walk {
		if r == sender {
			continue
		}
		payload, consumed := r.acc.Deliver(r, tx.frame, false)
		if c.Tap != nil {
			c.Tap(sender, r, payload, TapOK, consumed)
		}
		if consumed {
			continue
		}
		r.Stats.FramesHeard++
		c.Stats.FramesHeard++
		if r.rx != nil {
			r.rx(shared(payload), false)
		}
	}
}
