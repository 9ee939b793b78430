package ax25

import (
	"errors"
	"time"

	"packetradio/internal/sim"
)

// This file implements AX.25 v2.0 connected mode (the LAPB-derived
// "level 2" protocol): SABM/UA connection establishment, modulo-8 I
// frame sequencing with a sliding window, RR/RNR/REJ supervision, T1
// retransmission with an N2 retry limit, and T3 idle polling. The
// paper's terminal users ride this protocol inside their TNCs ("a
// primitive network layer protocol for use with terminals"), and §2.4's
// application gateway terminates it in user space.

// ConnState enumerates link states.
type ConnState int

const (
	StateDisconnected  ConnState = iota // no link; the initial and final state
	StateConnecting                     // SABM sent, awaiting UA
	StateConnected                      // link up, I-frames flow
	StateDisconnecting                  // DISC sent, awaiting UA/DM
)

func (s ConnState) String() string {
	switch s {
	case StateDisconnected:
		return "DISCONNECTED"
	case StateConnecting:
		return "CONNECTING"
	case StateConnected:
		return "CONNECTED"
	case StateDisconnecting:
		return "DISCONNECTING"
	}
	return "UNKNOWN"
}

// Link timers and limits, sized for a 1200 bps channel.
const (
	frack     = 8 * time.Second   // T1, the retransmission timer
	idleCheck = 180 * time.Second // T3, the idle link-check timer
	maxRetry  = 10                // N2, T1 expiries without progress before the link fails
	window    = 4                 // MAXFRAME, outstanding I frames (1-7)
	pacLen    = MaxInfo           // PACLEN, info bytes per I frame
)

// ConnStats counts protocol events on one connection.
type ConnStats struct {
	SentI, RcvdI   uint64
	Retransmits    uint64
	RejSent        uint64
	RejRcvd        uint64
	T1Expiries     uint64
	OutOfSeq       uint64
	BytesSent      uint64
	BytesReceived  uint64
	LinkFailures   uint64
	PollsAnswered  uint64
	KeepalivePolls uint64
}

// Conn is one AX.25 connected-mode link endpoint. All methods must be
// called from the simulation event loop. Frames arrive via Input
// (dispatched by an Endpoint) and leave via the transmit function the
// Endpoint was built with.
type Conn struct {
	Local, Remote Addr
	Path          []Addr // outbound digipeater path

	// OnState is invoked on every state transition.
	OnState func(ConnState)
	// OnData is invoked for each in-sequence information field.
	OnData func([]byte)

	Stats ConnStats

	sched *sim.Scheduler
	xmit  func(*Frame)
	state ConnState

	vs, va, vr uint8 // send, acknowledged, receive state variables (mod 8)
	sendq      [][]byte
	unacked    [][]byte // info fields sent but not acknowledged, oldest first
	rejSent    bool
	peerBusy   bool
	localBusy  bool
	retries    int

	t1, t3 *sim.Event
	err    error
}

var (
	// ErrConnRefused reports a DM received in answer to our SABM.
	ErrConnRefused = errors.New("ax25: connection refused (DM)")
	// ErrLinkTimeout reports N2 expiries of T1 with no progress.
	ErrLinkTimeout = errors.New("ax25: link timeout (N2 retries exhausted)")
	// ErrConnReset reports an unexpected SABM/DM/FRMR that reset the link.
	ErrConnReset = errors.New("ax25: connection reset by peer")
	// ErrNotConnected reports a Send on a link that is not up.
	ErrNotConnected = errors.New("ax25: not connected")
)

// State reports the current link state.
func (c *Conn) State() ConnState { return c.state }

// Err reports why the link most recently became disconnected, or nil.
func (c *Conn) Err() error { return c.err }

// Pending reports queued-but-unsent plus sent-but-unacknowledged bytes.
func (c *Conn) Pending() int {
	n := 0
	for _, p := range c.sendq {
		n += len(p)
	}
	for _, p := range c.unacked {
		n += len(p)
	}
	return n
}

func (c *Conn) setState(s ConnState) {
	if c.state == s {
		return
	}
	c.state = s
	if c.OnState != nil {
		c.OnState(s)
	}
}

func (c *Conn) send(f *Frame) {
	if len(c.Path) > 0 {
		f = f.Via(c.Path...)
	}
	c.xmit(f)
}

func (c *Conn) sendCtl(kind Kind, pf, command bool) {
	f := &Frame{Dst: c.Remote, Src: c.Local, Kind: kind, PF: pf, Command: command}
	if kind == KindRR || kind == KindRNR || kind == KindREJ {
		f.NR = c.vr
	}
	c.send(f)
}

func (c *Conn) startT1() {
	c.stopT1()
	c.t1 = c.sched.After(frack, c.t1Expired)
}

func (c *Conn) stopT1() {
	if c.t1 != nil {
		c.sched.Cancel(c.t1)
		c.t1 = nil
	}
}

func (c *Conn) startT3() {
	c.stopT3()
	c.t3 = c.sched.After(idleCheck, c.t3Expired)
}

func (c *Conn) stopT3() {
	if c.t3 != nil {
		c.sched.Cancel(c.t3)
		c.t3 = nil
	}
}

// Connect initiates the link (sends SABM).
func (c *Conn) Connect() {
	if c.state != StateDisconnected {
		return
	}
	c.reset()
	c.err = nil
	c.setState(StateConnecting)
	c.retries = 0
	c.sendCtl(KindSABM, true, true)
	c.startT1()
}

// Disconnect initiates an orderly teardown (sends DISC). Queued data
// that has not yet been transmitted is discarded, as in real TNCs.
func (c *Conn) Disconnect() {
	switch c.state {
	case StateConnected, StateConnecting:
		c.setState(StateDisconnecting)
		c.retries = 0
		c.sendCtl(KindDISC, true, true)
		c.startT1()
	case StateDisconnecting, StateDisconnected:
	}
}

// Send queues data for transmission, segmenting into PACLEN-sized I
// frames.
func (c *Conn) Send(data []byte) error {
	if c.state != StateConnected {
		return ErrNotConnected
	}
	for len(data) > 0 {
		n := len(data)
		if n > pacLen {
			n = pacLen
		}
		seg := make([]byte, n)
		copy(seg, data[:n])
		c.sendq = append(c.sendq, seg)
		data = data[n:]
	}
	c.pump()
	return nil
}

// SetBusy sets local flow control: while busy, incoming I frames are
// acknowledged with RNR and the peer should stop sending.
func (c *Conn) SetBusy(busy bool) {
	if c.localBusy == busy {
		return
	}
	c.localBusy = busy
	if c.state == StateConnected {
		if busy {
			c.sendCtl(KindRNR, false, false)
		} else {
			c.sendCtl(KindRR, false, false)
		}
	}
}

// pump transmits as many queued I frames as the window allows.
func (c *Conn) pump() {
	if c.state != StateConnected {
		return
	}
	if c.peerBusy {
		// Keep T1 running so we poll a busy peer: if its RR "no longer
		// busy" report is lost, the T1 poll/final exchange re-learns
		// the peer's state instead of stalling forever.
		if len(c.sendq) > 0 && c.t1 == nil {
			c.startT1()
		}
		return
	}
	for len(c.sendq) > 0 && len(c.unacked) < window {
		info := c.sendq[0]
		c.sendq = c.sendq[1:]
		c.unacked = append(c.unacked, info)
		f := &Frame{
			Dst: c.Remote, Src: c.Local, Kind: KindI,
			NS: c.vs, NR: c.vr, PID: PIDNone, Info: info, Command: true,
		}
		c.vs = (c.vs + 1) & 7
		c.Stats.SentI++
		c.Stats.BytesSent += uint64(len(info))
		c.send(f)
		if c.t1 == nil {
			c.startT1()
		}
	}
}

func (c *Conn) t1Expired() {
	c.t1 = nil
	c.Stats.T1Expiries++
	c.retries++
	if c.retries > maxRetry {
		c.fail(ErrLinkTimeout)
		return
	}
	switch c.state {
	case StateConnecting:
		c.sendCtl(KindSABM, true, true)
		c.startT1()
	case StateDisconnecting:
		c.sendCtl(KindDISC, true, true)
		c.startT1()
	case StateConnected:
		// Go-back-N: retransmit every unacknowledged I frame, asking
		// the peer to checkpoint with the poll bit on the last one.
		ns := c.va
		for i, info := range c.unacked {
			f := &Frame{
				Dst: c.Remote, Src: c.Local, Kind: KindI,
				NS: ns, NR: c.vr, PID: PIDNone, Info: info, Command: true,
				PF: i == len(c.unacked)-1,
			}
			ns = (ns + 1) & 7
			c.Stats.Retransmits++
			c.send(f)
		}
		if len(c.unacked) == 0 {
			// Nothing outstanding: poll with RR to probe the link.
			c.sendCtl(KindRR, true, true)
		}
		c.startT1()
	}
}

func (c *Conn) t3Expired() {
	c.t3 = nil
	if c.state != StateConnected {
		return
	}
	// Idle too long: poll the peer so a dead link is detected.
	c.Stats.KeepalivePolls++
	c.sendCtl(KindRR, true, true)
	if c.t1 == nil {
		c.startT1()
	}
}

func (c *Conn) fail(err error) {
	c.err = err
	c.Stats.LinkFailures++
	c.teardown()
}

func (c *Conn) teardown() {
	c.stopT1()
	c.stopT3()
	c.reset()
	c.setState(StateDisconnected)
}

func (c *Conn) reset() {
	c.vs, c.va, c.vr = 0, 0, 0
	c.sendq = nil
	c.unacked = nil
	c.rejSent = false
	c.peerBusy = false
	c.retries = 0
}

// ackTo processes an incoming N(R), releasing acknowledged frames.
func (c *Conn) ackTo(nr uint8) {
	// Number of frames acknowledged: distance from va to nr, mod 8,
	// bounded by what is actually outstanding.
	acked := int((nr - c.va) & 7)
	if acked > len(c.unacked) {
		// Peer acknowledged something we never sent; treat as protocol
		// error and reset conservatively (FRMR condition in the spec).
		acked = len(c.unacked)
	}
	if acked > 0 {
		c.unacked = c.unacked[acked:]
		c.va = nr
		c.retries = 0
		if len(c.unacked) == 0 {
			c.stopT1()
		} else {
			c.startT1()
		}
	}
}

// Input processes one frame addressed to this connection. The Endpoint
// guarantees f.Dst == c.Local and f.Src == c.Remote.
func (c *Conn) Input(f *Frame) {
	switch c.state {
	case StateDisconnected:
		c.inputDisconnected(f)
	case StateConnecting:
		c.inputConnecting(f)
	case StateConnected:
		c.inputConnected(f)
	case StateDisconnecting:
		c.inputDisconnecting(f)
	}
}

func (c *Conn) inputDisconnected(f *Frame) {
	switch f.Kind {
	case KindSABM:
		// Passive open: accept.
		c.reset()
		c.err = nil
		c.sendCtl(KindUA, f.PF, false)
		c.startT3()
		c.setState(StateConnected)
	case KindDISC:
		c.sendCtl(KindDM, f.PF, false)
	case KindUA, KindDM, KindUI, KindFRMR:
		// Ignore.
	default:
		// I or supervisory while disconnected: report DM.
		c.sendCtl(KindDM, f.PF, false)
	}
}

func (c *Conn) inputConnecting(f *Frame) {
	switch f.Kind {
	case KindUA:
		c.stopT1()
		c.reset()
		c.startT3()
		c.setState(StateConnected)
		c.pump()
	case KindDM:
		c.stopT1()
		c.err = ErrConnRefused
		c.Stats.LinkFailures++
		c.reset()
		c.setState(StateDisconnected)
	case KindSABM:
		// Simultaneous open: acknowledge; our own SABM will be UA'd too.
		c.sendCtl(KindUA, f.PF, false)
	case KindDISC:
		// The peer is still releasing a previous incarnation of this
		// link (its DISC's UA was lost). Answer DM so its release
		// completes; our SABM retry will then be accepted. Without
		// this, Connecting and Disconnecting starve each other until
		// both sides exhaust N2.
		c.sendCtl(KindDM, f.PF, false)
	}
}

func (c *Conn) inputDisconnecting(f *Frame) {
	switch f.Kind {
	case KindUA, KindDM:
		c.stopT1()
		c.teardown()
	case KindDISC:
		c.sendCtl(KindUA, f.PF, false)
		c.stopT1()
		c.teardown()
	}
}

func (c *Conn) inputConnected(f *Frame) {
	c.startT3() // any traffic restarts the idle timer
	switch f.Kind {
	case KindI:
		c.ackTo(f.NR)
		if f.NS == c.vr {
			c.vr = (c.vr + 1) & 7
			c.rejSent = false
			c.Stats.RcvdI++
			c.Stats.BytesReceived += uint64(len(f.Info))
			info := append([]byte(nil), f.Info...)
			if c.OnData != nil {
				c.OnData(info)
			}
			// Acknowledge: piggyback if we have data, else RR.
			if len(c.sendq) > 0 && !c.peerBusy && len(c.unacked) < window {
				c.pump()
			} else if c.localBusy {
				c.sendCtl(KindRNR, f.PF && f.Command, false)
			} else {
				c.sendCtl(KindRR, f.PF && f.Command, false)
			}
		} else {
			c.Stats.OutOfSeq++
			if !c.rejSent {
				c.rejSent = true
				c.Stats.RejSent++
				c.sendCtl(KindREJ, f.PF && f.Command, false)
			} else if f.PF && f.Command {
				c.sendCtl(KindRR, true, false)
			}
		}
		c.pump()
	case KindRR, KindRNR, KindREJ:
		c.peerBusy = f.Kind == KindRNR
		if !f.Command && f.PF {
			// A final answering our checkpoint/keepalive poll: the
			// link is alive. Without this, T1 keeps re-polling after a
			// T3 keepalive until N2 kills a perfectly healthy link.
			c.retries = 0
			if len(c.unacked) == 0 && len(c.sendq) == 0 {
				c.stopT1()
			}
		}
		if f.Kind == KindREJ {
			c.Stats.RejRcvd++
			c.ackTo(f.NR)
			// Retransmit everything outstanding from N(R).
			ns := c.va
			for _, info := range c.unacked {
				g := &Frame{
					Dst: c.Remote, Src: c.Local, Kind: KindI,
					NS: ns, NR: c.vr, PID: PIDNone, Info: info, Command: true,
				}
				ns = (ns + 1) & 7
				c.Stats.Retransmits++
				c.send(g)
			}
			if len(c.unacked) > 0 {
				c.startT1()
			}
		} else {
			c.ackTo(f.NR)
		}
		if f.PF && f.Command {
			// Poll: answer with final.
			c.Stats.PollsAnswered++
			if c.localBusy {
				c.sendCtl(KindRNR, true, false)
			} else {
				c.sendCtl(KindRR, true, false)
			}
		}
		c.pump()
	case KindSABM:
		// Link reset by peer.
		c.sendCtl(KindUA, f.PF, false)
		c.reset()
		c.err = ErrConnReset
	case KindDISC:
		c.sendCtl(KindUA, f.PF, false)
		c.err = nil
		c.teardown()
	case KindDM, KindFRMR:
		c.fail(ErrConnReset)
	case KindUI:
		// Connectionless traffic between connected stations: deliver.
		if c.OnData != nil && f.PID == PIDNone {
			c.OnData(append([]byte(nil), f.Info...))
		}
	}
}

// Endpoint multiplexes connected-mode links for one local address. It
// owns the mapping from remote address to Conn and hands inbound SABMs
// to the Accept callback.
type Endpoint struct {
	Local Addr

	// Accept decides whether to admit an inbound connection. If nil,
	// all connections are refused with DM. The callback may set OnData
	// and OnState on the new Conn before any data arrives.
	Accept func(*Conn) bool

	sched *sim.Scheduler
	xmit  func(*Frame)
	conns map[Addr]*Conn
}

// NewEndpoint builds an Endpoint that transmits frames through xmit.
func NewEndpoint(sched *sim.Scheduler, local Addr, xmit func(*Frame)) *Endpoint {
	return &Endpoint{
		Local: local,
		sched: sched,
		xmit:  xmit,
		conns: make(map[Addr]*Conn),
	}
}

// Dial returns the connection to remote (creating it if needed) and
// initiates it via the optional digipeater path.
func (e *Endpoint) Dial(remote Addr, via ...Addr) *Conn {
	c := e.conn(remote)
	c.Path = via
	c.Connect()
	return c
}

// Conns returns the live connection table (for monitoring).
func (e *Endpoint) Conns() map[Addr]*Conn { return e.conns }

func (e *Endpoint) conn(remote Addr) *Conn {
	c, ok := e.conns[remote]
	if !ok {
		c = &Conn{
			Local:  e.Local,
			Remote: remote,
			sched:  e.sched,
			xmit:   e.xmit,
		}
		e.conns[remote] = c
	}
	return c
}

// Input dispatches a received frame (already filtered to Dst==Local by
// the driver) to the right connection, creating one for inbound SABMs
// the Accept callback admits.
func (e *Endpoint) Input(f *Frame) {
	c, ok := e.conns[f.Src]
	if ok && c.State() == StateDisconnected && f.Kind == KindSABM {
		// A dead connection lingering in the table must not swallow a
		// fresh open; treat the SABM as a brand-new link.
		delete(e.conns, f.Src)
		c, ok = nil, false
	}
	if !ok {
		if f.Kind != KindSABM {
			if f.Kind != KindUA && f.Kind != KindDM && f.Kind != KindUI {
				// Unexpected traffic for an unknown link: DM it.
				resp := &Frame{Dst: f.Src, Src: e.Local, Kind: KindDM, PF: f.PF}
				if p := inboundPath(f); len(p) > 0 {
					resp = resp.Via(p...)
				}
				e.xmit(resp)
			}
			return
		}
		c = e.conn(f.Src)
		c.Path = inboundPath(f)
		if e.Accept == nil || !e.Accept(c) {
			delete(e.conns, f.Src)
			resp := &Frame{Dst: f.Src, Src: e.Local, Kind: KindDM, PF: f.PF}
			if len(c.Path) > 0 {
				resp = resp.Via(c.Path...)
			}
			e.xmit(resp)
			return
		}
	}
	c.Input(f)
}

// Remove drops a (disconnected) connection from the table.
func (e *Endpoint) Remove(remote Addr) { delete(e.conns, remote) }

// inboundPath computes the reverse digipeater path for replying to f.
func inboundPath(f *Frame) []Addr {
	if len(f.Digi) == 0 {
		return nil
	}
	p := make([]Addr, len(f.Digi))
	for i, d := range f.Digi {
		p[len(f.Digi)-1-i] = d.Addr
	}
	return p
}
