// Package tnc simulates the Terminal Node Controller of Figure 1 —
// "essentially a modem" that joins the RS-232 line from the host to the
// radio. Two firmware loads are modelled, as in the paper:
//
//   - TNC (this file): the stripped-down KISS firmware ("a stripped
//     down version of the software for it known as the KISS TNC code
//     ... which may be downloaded into the TNC, sends and receives data
//     and calculates the necessary checksums. Unlike the normal code
//     that resides in the ROM of the TNC, the KISS TNC code does not
//     worry about the packet format at all.")
//   - Native (native.go): the ROM firmware with a command interpreter
//     and built-in AX.25 connected mode ("a primitive network layer
//     protocol for use with terminals").
//
// The KISS TNC also models the §3 performance problem and its fix:
// "the present code running inside the TNC passes every packet it
// receives to the packet radio driver regardless of the destination
// address. We are considering changing the TNC code so that it can
// selectively pass only those packets destined for the broadcast or
// local AX.25 addresses." FilterMode selects between the two
// behaviours; E2 measures the difference. A filtering TNC registers its
// callsign with the radio, so a channel that classifies its frames
// (Classify) hands it only the frames it passes up (DESIGN.md §3b).
package tnc

import (
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/kiss"
	"packetradio/internal/netif"
	"packetradio/internal/pool"
	"packetradio/internal/radio"
	"packetradio/internal/serial"
	"packetradio/internal/sim"
)

// FilterMode selects which received frames are passed up to the host.
type FilterMode int

const (
	// Promiscuous passes every intact frame heard on the channel (the
	// original KISS behaviour the paper complains about).
	Promiscuous FilterMode = iota
	// AddressFilter passes only frames whose link destination is the
	// TNC's own callsign, the broadcast address, or the NET/ROM NODES
	// address (the paper's proposed TNC change).
	AddressFilter
)

// Stats counts TNC events.
type Stats struct {
	ToHost uint64 // frames passed up the serial line
	// Filtered counts frames suppressed by the address filter. The raw
	// field lags: frames the channel settled in bulk without handing
	// them over are counted in only by TNC.Filtered, so read that.
	Filtered    uint64
	CRCErrors   uint64 // frames dropped for bad FCS (collisions, noise)
	HostDrops   uint64 // frames dropped because the host queue was full
	FromHost    uint64 // data frames received from the host
	Transmitted uint64 // frames keyed onto the radio
	ParamsSet   uint64 // KISS parameter commands applied
}

// hostQueueFrames bounds frames buffered toward the host (the TNC's
// scarce on-board RAM).
const hostQueueFrames = 16

// TNC is a KISS-firmware TNC.
type TNC struct {
	Name string
	// MyCall is the callsign the address filter passes. SetFilter
	// registers it with the radio, so set it before that.
	MyCall ax25.Addr

	// OnDrop, when non-nil, observes frames the TNC discards toward
	// the host ("tnc host queue overflow"); body is the AX.25 frame
	// without FCS. The callback must not retain the slice.
	OnDrop func(reason string, body []byte)

	Stats Stats

	sched  *sim.Scheduler
	host   *serial.End
	rf     *radio.Transceiver
	filter FilterMode
	params kiss.Params
	dec    kiss.Decoder

	// hostQ holds the bodies of frames bound for the host, each copied
	// off the air into a buffer from bodies, since the channel reuses
	// its bytes once fromRadio returns. pumpHost KISS-encodes each into
	// hostBuf as it goes on the line and gives its buffer back, and
	// fromHost builds FCS-suffixed frames in txBuf for the radio, which
	// copies them.
	hostQ       *netif.Queue[[]byte]
	bodies      pool.List[[]byte]
	hostSending bool
	hostBuf     []byte
	txBuf       []byte
}

// New builds a KISS TNC between a host serial end and a radio
// transceiver, in Promiscuous mode. mycall is used only in
// AddressFilter mode (SetFilter).
func New(sched *sim.Scheduler, host *serial.End, rf *radio.Transceiver, mycall ax25.Addr) *TNC {
	t := &TNC{
		Name:   rf.Name,
		MyCall: mycall,
		sched:  sched,
		host:   host,
		rf:     rf,
		params: kiss.DefaultParams(),
		hostQ:  netif.NewQueue[[]byte](hostQueueFrames),
	}
	t.dec.Frame = t.fromHost
	// Burst receive: the KISS decoder consumes whole serial runs (one
	// frame's worth of bytes per event) instead of a callback per byte.
	host.SetRunReceiver(func(p []byte) { t.dec.Write(p) })
	host.OnDrain = t.pumpHost
	rf.SetReceiver(t.fromRadio)
	t.applyParams()
	return t
}

// Params reports the current KISS parameters.
func (t *TNC) Params() kiss.Params { return t.params }

// SetFilter selects which received frames go up to the host. In
// AddressFilter mode the TNC listens for MyCall on its transceiver
// (radio.Transceiver.Listen): a channel that classifies frames with
// Classify then never hands it a frame for another station, and
// counts the frame in Filtered instead.
func (t *TNC) SetFilter(m FilterMode) {
	t.filter = m
	if m == AddressFilter {
		t.rf.Listen(key(t.MyCall))
	} else {
		t.rf.ListenAll()
	}
}

// Filtered reports the frames the address filter suppressed: those
// fromRadio dropped (Stats.Filtered) and those the channel settled in
// bulk without handing them over (radio.Transceiver.Passed).
func (t *TNC) Filtered() uint64 { return t.Stats.Filtered + t.rf.Passed() }

// Classify is the radio.Classifier of a channel whose receivers filter
// as an AddressFilter TNC does. It reads the shared receive verdict
// (ax25.Hear), so it adds no decode, and applies fromRadio's rule: a
// frame with a bad FCS, one that does not decode, and one for a group
// address go to everyone; any other goes to the listeners of its link
// destination.
func Classify(c *radio.Channel, framed []byte) (uint64, bool) {
	h := ax25.Hear(c.Memo(), framed)
	if !h.OK || h.Err != nil || group(h) {
		return 0, true
	}
	return key(h.LinkDst), false
}

// group reports whether a decoded frame is for a group address — the
// broadcast address or NODES, as its next hop or its final destination
// — which every filtering TNC passes up.
func group(h *ax25.Heard) bool {
	dst, final := h.LinkDst, h.Frame.Dst
	return dst == ax25.Broadcast || dst == ax25.Nodes || final == ax25.Broadcast || final == ax25.Nodes
}

// key packs a callsign into the channel's opaque listener key, one key
// per address.
func key(a ax25.Addr) uint64 {
	k := uint64(a.SSID)
	for _, c := range a.Call {
		k = k<<8 | uint64(c)
	}
	return k
}

// applyParams translates KISS parameter bytes into radio channel-access
// parameters.
func (t *TNC) applyParams() {
	// SetParams, not a field write: a KISS parameter frame can land
	// while the radio sits mid-defer, and the contention engine must
	// re-anchor its slot grid on the new SlotTime. The channel-access
	// *policy* (CSMA vs the DAMA controller) is not a KISS parameter at
	// all — it lives in the transceiver's Accessor, which SetParams
	// notifies through its ParamsChanged hook, so pushing TNC
	// parameters never disturbs a port's MAC membership.
	t.rf.SetParams(radio.Params{
		TXDelay:    time.Duration(t.params.TXDelay) * 10 * time.Millisecond,
		SlotTime:   time.Duration(t.params.SlotTime) * 10 * time.Millisecond,
		Persist:    (float64(t.params.Persist) + 1) / 256,
		FullDuplex: t.params.FullDuplex,
	})
}

// fromHost handles one decoded KISS frame arriving from the host.
func (t *TNC) fromHost(f kiss.Frame) {
	if f.Command != kiss.CmdData {
		if t.params.Apply(f) {
			t.Stats.ParamsSet++
			t.applyParams()
		}
		return
	}
	t.Stats.FromHost++
	// The KISS TNC appends the FCS and transmits; it does not inspect
	// the AX.25 payload at all.
	t.txBuf = ax25.AppendFCS(append(t.txBuf[:0], f.Payload...))
	t.Stats.Transmitted++
	t.rf.Send(t.txBuf)
}

// fromRadio handles one frame heard on the channel.
func (t *TNC) fromRadio(framed []byte, damaged bool) {
	if damaged {
		t.Stats.CRCErrors++
		return
	}
	h := ax25.Hear(t.rf.Channel().Memo(), framed)
	if !h.OK {
		t.Stats.CRCErrors++
		return
	}
	// The paper's proposed selective filter: only frames for our
	// callsign, the broadcast address or NODES go up the line, and frames
	// that do not parse are noise.
	if t.filter == AddressFilter && (h.Err != nil || !group(h) && h.LinkDst != t.MyCall) {
		t.Stats.Filtered++
		return
	}
	if body := pool.Copy(&t.bodies, h.Body); !t.hostQ.Enqueue(body) {
		t.bodies.Put(body)
		t.Stats.HostDrops++
		if t.OnDrop != nil {
			t.OnDrop("tnc host queue overflow", h.Body)
		}
		return
	}
	t.pumpHost()
}

// pumpHost moves one queued frame at a time onto the serial line so
// the bounded queue, not the UART, holds the backlog.
func (t *TNC) pumpHost() {
	if t.hostSending && !t.host.Drained() {
		return
	}
	body, ok := t.hostQ.Dequeue()
	if !ok {
		t.hostSending = false
		return
	}
	t.hostSending = true
	t.Stats.ToHost++
	t.hostBuf = kiss.Encode(t.hostBuf[:0], 0, body)
	t.bodies.Put(body)
	t.host.Write(t.hostBuf)
}

// Digipeater is a standalone store-and-forward repeater: a TNC in
// digipeat mode with no host attached — the "relay stations ... set up
// in strategic locations" of §1. It repeats frames whose next
// unrepeated digipeater entry matches its callsign.
type Digipeater struct {
	Call  ax25.Addr
	Stats struct {
		Repeated  uint64
		CRCErrors uint64
		Ignored   uint64
	}

	rf *radio.Transceiver
}

// NewDigipeater attaches a digipeater to a transceiver.
func NewDigipeater(call ax25.Addr, rf *radio.Transceiver) *Digipeater {
	d := &Digipeater{Call: call, rf: rf}
	rf.SetReceiver(d.fromRadio)
	return d
}

func (d *Digipeater) fromRadio(framed []byte, damaged bool) {
	if damaged {
		d.Stats.CRCErrors++
		return
	}
	h := ax25.Hear(d.rf.Channel().Memo(), framed)
	if !h.OK {
		d.Stats.CRCErrors++
		return
	}
	// Ours to repeat: the next unrepeated hop of its path is our call.
	if h.Err != nil || h.LinkDst != d.Call || h.Frame.NextDigi() < 0 {
		d.Stats.Ignored++
		return
	}
	g := h.Frame.Clone()
	g.Digi[g.NextDigi()].Repeated = true
	enc, err := g.Encode(nil)
	if err != nil {
		d.Stats.Ignored++
		return
	}
	d.Stats.Repeated++
	d.rf.Send(ax25.AppendFCS(enc))
}
