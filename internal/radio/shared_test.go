package radio_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/bbs"
	"packetradio/internal/dama"
	"packetradio/internal/kiss"
	"packetradio/internal/netrom"
	"packetradio/internal/radio"
	"packetradio/internal/serial"
	"packetradio/internal/sim"
	"packetradio/internal/tnc"
)

// hearingRig puts every kind of radio receiver on one channel: a KISS
// TNC in each filter mode, a ROM-firmware TNC whose user connects to a
// BBS through a digipeater, two NET/ROM nodes, the digipeater and the
// BBS. A little bit-error noise (and, under CSMA, contention) damages
// some receptions.
type hearingRig struct {
	s      *sim.Scheduler
	ch     *radio.Channel
	kiss   []*tnc.TNC
	hosts  []*bytes.Buffer // what each KISS host and the native user received
	native *tnc.Native
	digi   *tnc.Digipeater
	nodes  []*netrom.Node
	board  *bbs.Board
	dgrams int
}

func newHearingRig(damaMAC bool) *hearingRig {
	r := &hearingRig{s: sim.NewScheduler(7)}
	r.ch = radio.NewChannel(r.s, 1200)
	r.ch.BitErrorRate = 1e-4
	params := radio.Params{TXDelay: 100 * time.Millisecond, SlotTime: 50 * time.Millisecond, Persist: 0.5}
	host := func() (*serial.End, *serial.End) {
		hostEnd, tncEnd := serial.NewLine(r.s, 9600)
		buf := new(bytes.Buffer)
		hostEnd.SetRunReceiver(func(p []byte) { buf.Write(p) })
		r.hosts = append(r.hosts, buf)
		return hostEnd, tncEnd
	}
	for i, call := range []string{"KA", "KB"} {
		hostEnd, tncEnd := host()
		t := tnc.New(r.s, tncEnd, r.ch.Attach(call, params), ax25.MustAddr(call))
		t.SetFilter(tnc.FilterMode(i)) // KA promiscuous, KB filtered
		r.kiss = append(r.kiss, t)
		r.s.Every(20*time.Second, func() { r.sendUI(hostEnd, call) })
	}
	userEnd, tncEnd := host()
	r.native = tnc.NewNative(r.s, tncEnd, r.ch.Attach("N7AKR", params), ax25.MustAddr("N7AKR"))
	r.digi = tnc.NewDigipeater(ax25.MustAddr("RELAY"), r.ch.Attach("RELAY", params))
	r.board = bbs.New(r.s, r.ch, "UWBBS")
	for _, call := range []string{"NODEA", "NODEB"} {
		n := netrom.NewNode(r.s, r.ch, call, call[4:])
		n.OnDatagram = func(ax25.Addr, uint8, []byte) { r.dgrams++ }
		n.Start()
		r.nodes = append(r.nodes, n)
	}
	r.s.Every(30*time.Second, func() {
		r.nodes[0].SendDatagram(r.nodes[1].Call, ax25.PIDIP, []byte("datagram over the node network"))
	})
	if damaMAC {
		ctl := dama.New(r.ch)
		for _, rf := range r.ch.Stations() {
			ctl.Join(rf)
		}
	}
	typed := func(at time.Duration, line string) {
		r.s.At(sim.Time(0).Add(at), func() { userEnd.Write([]byte(line + "\r")) })
	}
	typed(2*time.Second, "CONNECT UWBBS VIA RELAY")
	typed(2*time.Minute, "S KB7DZ")
	typed(3*time.Minute, "Shared frames")
	typed(4*time.Minute, "Every receiver reads the same bytes.")
	typed(5*time.Minute, ".")
	typed(7*time.Minute, "L")
	return r
}

// sendUI has a KISS host put a round of UI frames on the air: to the
// broadcast address, to the other KISS station, to nobody, and to the
// other station through the digipeater.
func (r *hearingRig) sendUI(host *serial.End, src string) {
	other := map[string]string{"KA": "KB", "KB": "KA"}[src]
	for _, f := range []*ax25.Frame{
		ax25.NewUI(ax25.Broadcast, ax25.MustAddr(src), ax25.PIDNone, []byte("CQ CQ")),
		ax25.NewUI(ax25.MustAddr(other), ax25.MustAddr(src), ax25.PIDIP, []byte("for you")),
		ax25.NewUI(ax25.MustAddr("NOBODY"), ax25.MustAddr(src), ax25.PIDIP, []byte("for nobody")),
		ax25.NewUI(ax25.MustAddr(other), ax25.MustAddr(src), ax25.PIDNone, []byte("relayed")).Via(ax25.MustAddr("RELAY")),
	} {
		enc, _ := f.Encode(nil)
		host.Write(kiss.Encode(nil, 0, enc))
	}
}

// stats renders every receiver's counters, what reached the hosts, and
// every transceiver's MAC counters, each counter as its accessor
// settles it.
func (r *hearingRig) stats() string {
	var b strings.Builder
	for i, t := range r.kiss {
		st := t.Stats
		st.Filtered = t.Filtered()
		fmt.Fprintf(&b, "kiss %s %+v\n", t.Name, st)
		fmt.Fprintf(&b, "  host %d: %x\n", i, r.hosts[i].Bytes())
	}
	fmt.Fprintf(&b, "native %+v\n  user: %q\n", r.native.Stats, r.hosts[2].String())
	fmt.Fprintf(&b, "digi %+v\n", r.digi.Stats)
	for _, n := range r.nodes {
		fmt.Fprintf(&b, "node %s %+v routes=%d\n", n.Call, n.Stats, len(n.Routes()))
	}
	fmt.Fprintf(&b, "datagrams %d\n", r.dgrams)
	fmt.Fprintf(&b, "bbs %+v messages=%d\n", r.board.Stats, len(r.board.Messages()))
	for _, rf := range r.ch.Stations() {
		st := rf.Stats
		st.FramesHeard = rf.FramesHeard()
		fmt.Fprintf(&b, "rf %s %+v\n", rf.Name, st)
	}
	cs := r.ch.Stats
	cs.FramesHeard = r.ch.FramesHeard()
	fmt.Fprintf(&b, "channel %+v\n", cs)
	return b.String()
}

// TestReceiversShareFrames is the contract behind handing every
// receiver of a transmission the same bytes (radio.SetReceiver): each
// frame comes capped at its length, so an append copies it; no
// receiver writes into the frame it was handed; and every receiver
// ends up with exactly the counters it has when each is handed a
// private copy instead.
func TestReceiversShareFrames(t *testing.T) {
	for _, mac := range []string{"csma", "dama"} {
		t.Run(mac, func(t *testing.T) {
			shared := newHearingRig(mac == "dama")
			var tapped []byte
			shared.ch.Tap = func(_, _ *radio.Transceiver, payload []byte, _ radio.TapOutcome, _ bool) {
				tapped = payload
			}
			for _, rf := range shared.ch.Stations() {
				rx := rf.Receiver()
				rf.SetReceiver(func(frame []byte, damaged bool) {
					if len(frame) != len(tapped) || len(frame) > 0 && &frame[0] != &tapped[0] {
						t.Fatalf("%s was handed a copy, not the channel's bytes", rf.Name)
					}
					if cap(frame) != len(frame) {
						t.Fatalf("%s was handed %d bytes with capacity %d", rf.Name, len(frame), cap(frame))
					}
					onAir := slices.Clone(frame[:cap(frame)])
					rx(frame, damaged)
					if !bytes.Equal(frame[:cap(frame)], onAir) {
						t.Fatalf("%s changed the frame it heard at %v", rf.Name, shared.s.Now())
					}
				})
			}
			private := newHearingRig(mac == "dama")
			for _, rf := range private.ch.Stations() {
				rx := rf.Receiver()
				rf.SetReceiver(func(frame []byte, damaged bool) {
					rx(append([]byte(nil), frame...), damaged)
				})
			}
			shared.s.RunFor(10 * time.Minute)
			private.s.RunFor(10 * time.Minute)

			got, want := shared.stats(), private.stats()
			if got != want {
				t.Fatalf("shared frames changed what receivers did:\nshared:\n%s\nprivate copies:\n%s", got, want)
			}
			// The run exercised every receiver, and damaged receptions.
			r := shared
			if r.kiss[0].Stats.ToHost == 0 || r.kiss[1].Filtered() == 0 || r.kiss[1].Stats.ToHost == 0 ||
				r.kiss[0].Stats.CRCErrors == 0 || r.digi.Stats.Repeated == 0 || r.board.Stats.Stored != 1 ||
				r.native.Stats.Connects == 0 || r.nodes[1].Stats.NodesRcvd == 0 || r.dgrams == 0 {
				t.Fatalf("traffic did not reach every receiver:\n%s", got)
			}
		})
	}
}
