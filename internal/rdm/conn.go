package rdm

import (
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/pool"
	"packetradio/internal/sim"
)

// outMsg is one reliable message at the sender: tracked from first
// transmission until acknowledged, when it and its payload buffer go
// back to the connection's list.
type outMsg struct {
	seq       uint16
	mode      Mode
	payload   []byte
	sentAt    sim.Time // first transmission (RTT sampling)
	started   bool     // transmitted at least once (vs queued)
	rexmits   int
	rexmitted bool // Karn's rule: never sample RTT off a retransmitted message
}

// Conn is one RDM connection — a pair of (address, port) endpoints
// with independent reliable and unreliable sequence spaces. All
// upcalls run on the simulation event loop.
type Conn struct {
	// OnMessage delivers one received message. The slice is owned by
	// the receiver.
	OnMessage func(payload []byte, mode Mode)
	// OnWritable fires when a send that returned ErrWouldBlock is
	// worth retrying.
	OnWritable func()
	// OnDelivered fires when a reliable message is acknowledged by
	// the peer, identified by the seq Send returned — how
	// store-and-forward applications learn a message survived the
	// path without inventing their own acks.
	OnDelivered func(seq uint16)
	// OnClose fires exactly once when the connection dies: nil after
	// an orderly Close/Bye, ErrTimeout after retransmission
	// exhaustion, ErrStale after a quiet-period reap.
	OnClose func(err error)

	mux      *Mux
	key      connKey
	ownsPort bool

	closed bool // Close called; no new sends
	dead   bool // torn down; removed from mux
	err    error

	// Sender state, reliable space.
	sndNxt        uint16
	order         []uint16           // unacked seqs in send order
	inflight      map[uint16]*outMsg // includes window-queued messages
	sendQ         []uint16           // seqs waiting for window space
	sendQBytes    int
	inflightBytes int // transmitted-and-unacked bytes (deadline scaling)
	blocked       bool

	// RFC 6298 timer state.
	srtt, rttvar time.Duration
	hasRTT       bool
	backoff      uint
	rexmt        *sim.Event

	// Sender state, unreliable space.
	usndNxt uint16

	// Receiver state, reliable space. rcvNxt is the next expected seq.
	// Both ends start the reliable space at 0 by protocol — there is
	// no handshake, and adopting whatever seq happens to arrive first
	// would silently abandon earlier messages still in flight (the
	// first transmission of seq 0 being lost must not make seq 1 the
	// start of the stream). A peer that lost its state therefore drops
	// our out-of-window data until our retransmission budget fails the
	// connection and the application redials; see DESIGN.md §3f.
	//
	// ooo holds each reliable message received at or past rcvNxt, by
	// seq, until rcvNxt passes it: an ordered message's payload, copied
	// into a buffer from held (emptyHeld if it is empty), or nil, a
	// tombstone for a message already delivered (unordered reliable)
	// that only keeps the dedup and cumulative-ack state.
	rcvNxt uint16
	hiSeen uint16
	ooo    map[uint16][]byte
	held   pool.List[[]byte]

	// Receiver state, unreliable space: a 64-message sliding dedup
	// bitmask below the highest seq heard, plus the ordered-mode
	// high-water mark.
	uInit    bool
	uHigh    uint16
	uSeen    uint64
	uOrdInit bool
	uOrdHigh uint16

	// Acknowledgment coalescing and NAK pacing. nakRounds counts NAK
	// packets sent with no receive progress since; past 2×maxRexmits
	// the sender has certainly failed the connection, so the receiver
	// stops spending airtime and leaves the rest to the stale sweeper.
	pendingAcks int
	ackTimer    *sim.Event
	nakTimer    *sim.Event
	nakLast     map[uint16]sim.Time
	nakRounds   int

	lastHeard sim.Time

	// Storage reused across messages: msgs holds acknowledged outMsgs,
	// acked the seqs processAckInfo settles, and the timer callbacks
	// are built once, so arming a timer builds no closure.
	msgs                  pool.List[*outMsg]
	acked                 []uint16
	rexmtFn, ackFn, nakFn func()
}

// RemoteAddr reports the peer's address.
func (c *Conn) RemoteAddr() ip.Addr { return c.key.raddr }

// RemotePort reports the peer's port.
func (c *Conn) RemotePort() uint16 { return c.key.rport }

// LocalPort reports the local port.
func (c *Conn) LocalPort() uint16 { return c.key.lport }

// Err reports the latched close reason (nil while alive or after an
// orderly close).
func (c *Conn) Err() error { return c.err }

// Closed reports whether the connection is closed or dead.
func (c *Conn) Closed() bool { return c.closed || c.dead }

// Pending reports reliable messages not yet acknowledged (in flight
// plus queued).
func (c *Conn) Pending() int { return len(c.inflight) }

// RTO reports the current retransmission timeout base (before the
// per-byte in-flight scaling).
func (c *Conn) RTO() time.Duration { return c.rtoBase() }

// SRTT reports the smoothed RTT estimate (0 before the first sample).
func (c *Conn) SRTT() time.Duration { return c.srtt }

// Writable reports whether Send of an n-byte message would be
// accepted right now.
func (c *Conn) Writable(n int) bool {
	if c.closed || c.dead {
		return false
	}
	if len(c.order)-len(c.sendQ) < window && len(c.sendQ) == 0 {
		return true
	}
	return c.sendQBytes+n <= sndBuf
}

// Send queues one message for transmission in the given delivery mode
// and returns its sequence number (reliable and unreliable spaces are
// independent). Reliable sends beyond the in-flight window queue up
// to sndBuf bytes, then return ErrWouldBlock; OnWritable fires when
// there is room again. Unreliable sends never block.
func (c *Conn) Send(mode Mode, payload []byte) (uint16, error) {
	if c.dead {
		if c.err != nil {
			return 0, c.err
		}
		return 0, ErrClosed
	}
	if c.closed {
		return 0, ErrClosed
	}
	if len(payload) > maxMessage {
		return 0, ErrTooBig
	}
	if !mode.IsReliable() {
		seq := c.usndNxt
		c.usndNxt++
		c.mux.Stats.Sent++
		c.sendPacket(TypeData, mode, seq, payload)
		return seq, nil
	}
	inWindow := len(c.order) - len(c.sendQ)
	if len(c.sendQ) > 0 || inWindow >= window {
		if c.sendQBytes+len(payload) > sndBuf {
			c.blocked = true
			return 0, ErrWouldBlock
		}
	}
	seq := c.sndNxt
	c.sndNxt++
	m, ok := c.msgs.Get()
	if !ok {
		m = new(outMsg)
	}
	*m = outMsg{seq: seq, mode: mode, payload: append(m.payload[:0], payload...)}
	c.inflight[seq] = m
	c.order = append(c.order, seq)
	if len(c.sendQ) > 0 || inWindow >= window {
		c.sendQ = append(c.sendQ, seq)
		c.sendQBytes += len(payload)
		return seq, nil
	}
	c.transmit(m)
	return seq, nil
}

// transmit puts a reliable message on the wire (first time) and arms
// the retransmission timer.
func (c *Conn) transmit(m *outMsg) {
	m.started = true
	m.sentAt = c.mux.sched.Now()
	c.inflightBytes += len(m.payload) + HeaderLen
	c.mux.Stats.Sent++
	c.sendPacket(TypeData, m.mode, m.seq, m.payload)
	c.armRexmt()
}

// retransmit resends an in-flight message. NAK-driven repairs skip
// messages already at the rexmit cap — the timer path owns failing
// the connection.
func (c *Conn) retransmit(m *outMsg) {
	m.rexmits++
	m.rexmitted = true
	c.mux.Stats.Resent++
	c.sendPacket(TypeData, m.mode, m.seq, m.payload)
}

// sendPacket marshals and transmits one packet, piggybacking the
// receiver side's complete acknowledgment state. Any transmission
// therefore satisfies a pending delayed ACK.
func (c *Conn) sendPacket(t Type, mode Mode, seq uint16, payload []byte) {
	h := Header{
		SrcPort: c.key.lport,
		DstPort: c.key.rport,
		Type:    t,
		Mode:    mode,
		Seq:     seq,
	}
	h.Ack = c.rcvNxt
	for i := 0; i < 16; i++ {
		if _, ok := c.ooo[c.rcvNxt+1+uint16(i)]; ok {
			h.Sack |= 1 << uint(i)
		}
	}
	c.clearAckPending()
	// The stack never keeps the caller's bytes, so the mux's one segment
	// buffer serves every packet.
	c.mux.seg = AppendPacket(c.mux.seg[:0], c.mux.stack.Addr(), c.key.raddr, h, payload)
	c.mux.stack.Send(ip.ProtoRDM, ip.Addr{}, c.key.raddr, c.mux.seg, 0, 0)
}

// --- Retransmission timer -------------------------------------------------

// rtoBase is the RFC 6298 timeout with the radio floor and the
// current backoff applied.
func (c *Conn) rtoBase() time.Duration {
	rto := initialRTO
	if c.hasRTT {
		rto = c.srtt + 4*c.rttvar
	}
	if rto < minRTO {
		rto = minRTO
	}
	if c.backoff > 0 {
		shift := c.backoff
		if shift > 16 {
			shift = 16
		}
		rto <<= shift
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}

// armRexmt (re)starts the retransmission timer for the oldest
// transmitted-and-unacked message. The deadline is the adaptive RTO
// plus the serialization cost of every byte in flight (byteTime)
// — on a 1200 bps channel the first ACK for a burst cannot arrive
// before the whole burst has been on the air.
func (c *Conn) armRexmt() {
	if c.rexmt != nil {
		c.mux.sched.Cancel(c.rexmt)
		c.rexmt = nil
	}
	if len(c.order)-len(c.sendQ) == 0 {
		return
	}
	d := c.rtoBase() + time.Duration(c.inflightBytes)*byteTime
	c.rexmt = c.mux.sched.After(d, c.rexmtFn)
}

func (c *Conn) rexmtFire() {
	c.rexmt = nil // one-shot pointer discipline: the event is recycled
	if c.dead {
		return
	}
	var m *outMsg
	for _, seq := range c.order {
		if cand := c.inflight[seq]; cand != nil && cand.started {
			m = cand
			break
		}
	}
	if m == nil {
		return
	}
	if m.rexmits >= maxRexmits {
		c.fail(ErrTimeout)
		return
	}
	// Go-back-one: resend only the oldest and back off. The
	// receiver's NAKs repair any further holes without waiting out
	// another timeout ladder.
	c.retransmit(m)
	c.backoff++
	c.armRexmt()
}

// rttSample folds one clean RTT measurement into SRTT/RTTVAR.
func (c *Conn) rttSample(d time.Duration) {
	if d < 0 {
		return
	}
	if !c.hasRTT {
		c.srtt = d
		c.rttvar = d / 2
		c.hasRTT = true
		return
	}
	diff := c.srtt - d
	if diff < 0 {
		diff = -diff
	}
	c.rttvar = (3*c.rttvar + diff) / 4
	c.srtt = (7*c.srtt + d) / 8
}

// --- Input ----------------------------------------------------------------

// input dispatches one packet for this connection.
func (c *Conn) input(h Header, payload []byte) {
	if c.dead {
		return
	}
	c.lastHeard = c.mux.sched.Now()
	c.processAckInfo(h)
	if c.dead {
		return
	}
	switch h.Type {
	case TypeAck:
		c.mux.Stats.AcksIn++
	case TypeNak:
		c.mux.Stats.NaksIn++
		for _, seq := range unmarshalNakList(payload) {
			m := c.inflight[seq]
			if m == nil || !m.started {
				continue
			}
			if m.rexmits >= maxRexmits {
				// The peer is still asking for a message we have already
				// repeated maxRexmits times: the path is not passing it.
				// Fail now — skipping it silently would deadlock, because
				// every NAK arrival re-arms the retransmission timer
				// below and so the timer-side exhaustion check would
				// never get to run.
				c.fail(ErrTimeout)
				return
			}
			c.retransmit(m)
		}
		if !c.dead {
			c.armRexmt()
		}
	case TypeBye:
		c.teardown(nil)
	case TypeData:
		c.receiveData(h, payload)
	}
}

// processAckInfo applies the cumulative + selective acknowledgment
// carried on every packet to the in-flight table. Bookkeeping settles
// completely before any application upcall fires, so a handler that
// sends or closes sees consistent state.
func (c *Conn) processAckInfo(h Header) {
	if len(c.order) == 0 {
		return
	}
	now := c.mux.sched.Now()
	// The unacked seqs are filtered in place into keep, and the acked
	// ones gathered into the connection's scratch; the upcalls below run
	// on a slice taken out of c, so a reentrant call starts its own.
	acked := c.acked[:0]
	c.acked = nil
	keep := c.order[:0]
	for _, seq := range c.order {
		m := c.inflight[seq]
		hit := seqLT(seq, h.Ack)
		if !hit {
			off := seq - h.Ack
			if off >= 1 && off <= 16 && h.Sack&(1<<uint(off-1)) != 0 {
				hit = true
			}
		}
		// A queued-but-untransmitted message cannot have been
		// received; an "ack" for it is corruption noise.
		if !hit || !m.started {
			keep = append(keep, seq)
			continue
		}
		c.inflightBytes -= len(m.payload) + HeaderLen
		if !m.rexmitted {
			c.rttSample(now.Sub(m.sentAt))
		}
		delete(c.inflight, seq)
		c.msgs.Put(m)
		c.mux.Stats.Acked++
		acked = append(acked, seq)
	}
	c.order = keep
	defer func() { c.acked = acked[:0] }()
	if len(acked) == 0 {
		return
	}
	c.backoff = 0
	c.drainSendQ()
	c.armRexmt()
	for _, seq := range acked {
		if c.dead {
			return
		}
		if c.OnDelivered != nil {
			c.OnDelivered(seq)
		}
	}
	if c.dead {
		return
	}
	if c.closed && len(c.order) == 0 {
		c.sendPacket(TypeBye, 0, 0, nil)
		c.teardown(nil)
		return
	}
	if c.blocked && c.Writable(0) {
		c.blocked = false
		if c.OnWritable != nil {
			c.OnWritable()
		}
	}
}

// drainSendQ moves queued messages into the window as acks open it.
func (c *Conn) drainSendQ() {
	for len(c.sendQ) > 0 && len(c.order)-len(c.sendQ) < window {
		seq := c.sendQ[0]
		c.sendQ = c.sendQ[1:]
		m := c.inflight[seq]
		if m == nil {
			continue
		}
		c.sendQBytes -= len(m.payload)
		c.transmit(m)
	}
}

// emptyHeld is ooo's entry for an empty ordered message awaiting
// delivery: non-nil, unlike the tombstone of a delivered one, and
// never returned to held.
var emptyHeld = []byte{}

// receiveData runs the receive-side dedup/reorder machinery and
// delivers to the application.
func (c *Conn) receiveData(h Header, payload []byte) {
	if !h.Mode.IsReliable() {
		c.receiveUnreliable(h, payload)
		return
	}
	if seqLT(h.Seq, c.rcvNxt) {
		// Already cumulatively acked: our ACK may have been lost, so
		// make sure another one goes out.
		c.mux.Stats.DupDropped++
		c.noteAckPending()
		return
	}
	if h.Seq-c.rcvNxt >= recvWindow {
		c.mux.Stats.OutOfWindow++
		return
	}
	if _, seen := c.ooo[h.Seq]; seen {
		c.mux.Stats.DupDropped++
		c.noteAckPending()
		return
	}
	if seqLT(c.hiSeen, h.Seq) {
		c.hiSeen = h.Seq
	}
	c.nakRounds = 0 // new data is progress; gap repair starts fresh
	if h.Mode == Reliable {
		// Unordered reliable: deliver on arrival, tombstone for dedup
		// and cumulative-ack accounting.
		c.ooo[h.Seq] = nil
		c.deliver(payload, h.Mode)
	} else {
		held := emptyHeld
		if len(payload) > 0 {
			held = pool.Copy(&c.held, payload)
		}
		c.ooo[h.Seq] = held
	}
	if c.dead {
		return
	}
	// Advance the cumulative point through everything contiguous,
	// releasing ordered messages as it passes them.
	for {
		held, ok := c.ooo[c.rcvNxt]
		if !ok {
			break
		}
		delete(c.ooo, c.rcvNxt)
		delete(c.nakLast, c.rcvNxt)
		c.rcvNxt++
		if held != nil {
			c.deliver(held, ReliableOrdered)
			if len(held) > 0 {
				c.held.Put(held)
			}
		}
		if c.dead {
			return
		}
	}
	c.noteAckPending()
	if c.dead {
		return
	}
	if len(c.ooo) > 0 {
		c.armNakTimer()
	}
}

// receiveUnreliable is the datagram dedup path: a 64-deep bitmask
// window below the highest seq heard, plus ordered-mode late-drop.
func (c *Conn) receiveUnreliable(h Header, payload []byte) {
	if !c.uInit {
		c.uInit = true
		c.uHigh = h.Seq
		c.uSeen = 1
	} else if seqLT(c.uHigh, h.Seq) {
		shift := h.Seq - c.uHigh
		if shift >= 64 {
			c.uSeen = 1
		} else {
			c.uSeen = c.uSeen<<shift | 1
		}
		c.uHigh = h.Seq
	} else {
		back := c.uHigh - h.Seq
		if back >= 64 {
			c.mux.Stats.OutOfWindow++
			return
		}
		if c.uSeen&(1<<back) != 0 {
			c.mux.Stats.DupDropped++
			return
		}
		c.uSeen |= 1 << back
	}
	if h.Mode.IsOrdered() {
		if c.uOrdInit && seqLE(h.Seq, c.uOrdHigh) {
			// A later message of the ordered flow was already
			// delivered; this one is stale.
			c.mux.Stats.DupDropped++
			return
		}
		c.uOrdInit = true
		c.uOrdHigh = h.Seq
	}
	c.deliver(payload, h.Mode)
}

func (c *Conn) deliver(payload []byte, mode Mode) {
	c.mux.Stats.Delivered++
	if c.OnMessage != nil {
		c.OnMessage(append([]byte(nil), payload...), mode)
	}
}

// --- Acknowledgment and NAK pacing ----------------------------------------

// noteAckPending records that the peer is owed an acknowledgment:
// flush immediately at ackEvery, otherwise wait ackDelay for a
// piggyback or more arrivals to coalesce with. The delay restarts on
// every arrival — lull-seeking: on a half-duplex channel a standalone
// ACK transmitted mid-burst both collides with the rest of the peer's
// train and deafens us to it, so the timer slides the ACK into the
// first gap instead. ackEvery bounds how much a gapless peer can keep
// us silent.
func (c *Conn) noteAckPending() {
	c.pendingAcks++
	if c.pendingAcks >= ackEvery {
		c.sendAck()
		return
	}
	if c.ackTimer != nil {
		c.mux.sched.Cancel(c.ackTimer)
	}
	c.ackTimer = c.mux.sched.After(ackDelay, c.ackFn)
}

func (c *Conn) ackFire() {
	c.ackTimer = nil
	if c.dead || c.pendingAcks == 0 {
		return
	}
	c.sendAck()
}

func (c *Conn) sendAck() {
	c.mux.Stats.AcksOut++
	c.sendPacket(TypeAck, 0, 0, nil)
}

// clearAckPending runs on every transmission: whatever went out
// carried the full ack state.
func (c *Conn) clearAckPending() {
	c.pendingAcks = 0
	if c.ackTimer != nil {
		c.mux.sched.Cancel(c.ackTimer)
		c.ackTimer = nil
	}
}

// armNakTimer schedules gap repair: a hole must outlive nakDelay
// before it is NAKed (reordering is not loss), and each seq is NAKed
// at most once per nakDelay. Like the delayed ACK, the timer restarts
// on every data arrival — while the peer's train is still landing, a
// NAK would collide with it, and the sender is not stalled anyway; the
// first lull is both the safe and the useful moment to ask for repair.
func (c *Conn) armNakTimer() {
	if c.nakTimer != nil {
		c.mux.sched.Cancel(c.nakTimer)
	}
	c.nakTimer = c.mux.sched.After(nakDelay, c.nakFn)
}

func (c *Conn) nakFire() {
	c.nakTimer = nil
	if c.dead || len(c.ooo) == 0 {
		return
	}
	now := c.mux.sched.Now()
	var missing []uint16
	for s := c.rcvNxt; seqLE(s, c.hiSeen) && len(missing) < maxNakSeqs; s++ {
		if _, ok := c.ooo[s]; ok {
			continue
		}
		if last, ok := c.nakLast[s]; ok && now.Sub(last) < nakDelay {
			continue
		}
		missing = append(missing, s)
	}
	if len(missing) > 0 {
		if c.nakRounds >= 2*maxRexmits {
			// Nothing has landed across that many repair attempts: the
			// sender has exhausted its own budget by now. Go quiet.
			return
		}
		c.nakRounds++
		for _, s := range missing {
			c.nakLast[s] = now
		}
		c.mux.Stats.NaksOut++
		c.sendPacket(TypeNak, 0, 0, marshalNakList(missing))
	}
	if !c.dead && len(c.ooo) > 0 {
		c.armNakTimer()
	}
}

// --- Teardown -------------------------------------------------------------

// Close stops accepting sends and tears the connection down once
// everything reliable in flight is acknowledged (immediately if
// nothing is). A Bye tells the peer to drop its state rather than
// wait out staleAfter. Idempotent.
func (c *Conn) Close() error {
	if c.closed || c.dead {
		return nil
	}
	c.closed = true
	if len(c.order) == 0 {
		c.sendPacket(TypeBye, 0, 0, nil)
		c.teardown(nil)
	}
	return nil
}

// fail ends the connection with an error (retransmission exhaustion).
func (c *Conn) fail(err error) {
	c.mux.Stats.Failed++
	c.teardown(err)
}

// teardown releases all state and fires OnClose exactly once.
func (c *Conn) teardown(err error) {
	if c.dead {
		return
	}
	c.dead = true
	c.err = err
	for _, e := range []**sim.Event{&c.rexmt, &c.ackTimer, &c.nakTimer} {
		if *e != nil {
			c.mux.sched.Cancel(*e)
			*e = nil
		}
	}
	c.inflight = nil
	c.order = nil
	c.sendQ = nil
	c.ooo = nil
	c.mux.drop(c)
	cb := c.OnClose
	c.OnMessage, c.OnWritable, c.OnDelivered, c.OnClose = nil, nil, nil, nil
	if cb != nil {
		cb(err)
	}
}
