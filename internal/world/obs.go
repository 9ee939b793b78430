package world

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"packetradio/internal/ip"
	"packetradio/internal/obs"
	"packetradio/internal/radio"
	"packetradio/internal/sim"
)

// This file wires the obs package onto a world: the metrics registry
// over every layer's counters, the flight recorder, and the seam
// recorder behind the span tracer, the ping ledger and pcap capture.
// Everything here is opt-in and read-side — a world that never calls
// these runs the exact same event schedule it always did.

// metricName makes a hierarchy-safe path segment: dots separate
// levels, so dots inside a channel or host name ("145.01") become
// underscores.
func metricName(s string) string { return strings.ReplaceAll(s, ".", "_") }

// Registry returns the world's metrics registry, building it on first
// use and re-sweeping on every call so hosts, channels and transports
// added since the last call are picked up. Names are hierarchical:
//
//	radio.145_01.collisions        dama.145_01.elections
//	host.pc1.ip.forwarded          host.pc1.pr0.rf.frames_sent
//	host.uw-gw.pr0.drv.ipq_drops   host.pc1.tcp.persists
func (w *World) Registry() *obs.Registry {
	if w.reg == nil {
		w.reg = obs.NewRegistry()
	}
	r := w.reg
	for name, ch := range w.channels {
		cn := metricName(name)
		r.RegisterStruct("radio."+cn, &ch.Stats)
		// Receptions the addressee walk settles in bulk are not in the
		// raw field (DESIGN.md §3b): read them settled, in place.
		r.RegisterFunc("radio."+cn+".frames_heard", func() float64 { return float64(ch.FramesHeard()) })
		r.RegisterFunc("radio."+cn+".utilization", ch.Utilization)
		if ctl, ok := w.dama[ch]; ok {
			r.RegisterStruct("dama."+cn, &ctl.Stats)
			r.RegisterDuration("dama."+cn+".control_airtime", &ch.Stats.ControlAirtime)
		}
	}
	for hname, h := range w.hosts {
		hn := "host." + metricName(hname)
		r.RegisterStruct(hn+".ip", &h.Stack.Stats)
		if h.sock != nil {
			if tp := h.sock.TCPActive(); tp != nil {
				r.RegisterStruct(hn+".tcp", &tp.Stats)
			}
			if rm := h.sock.RDMActive(); rm != nil {
				r.RegisterStruct(hn+".rdm", &rm.Stats)
			}
		}
		for ifName, p := range h.radios {
			pn := hn + "." + metricName(ifName)
			r.RegisterStruct(pn+".drv", &p.Driver.DStats)
			r.RegisterStruct(pn+".tnc", &p.TNC.Stats)
			r.RegisterStruct(pn+".rf", &p.RF.Stats)
			// Raw fields that lag are read settled, replacing the raw
			// views in place: the deferral field mid-defer, by the slots
			// the pending wake will settle (DESIGN.md §3c); the heard and
			// filtered counts, by the frames the channel settled in bulk
			// without handing them to the TNC (§3b).
			rf, t := p.RF, p.TNC
			r.RegisterFunc(pn+".rf.csma_deferrals", func() float64 { return float64(rf.CSMADeferrals()) })
			r.RegisterFunc(pn+".rf.frames_heard", func() float64 { return float64(rf.FramesHeard()) })
			r.RegisterFunc(pn+".tnc.filtered", func() float64 { return float64(t.Filtered()) })
			r.RegisterStruct(pn+".arp", &p.Driver.Resolver().Stats)
		}
	}
	return r
}

// Netstat writes the full registry snapshot as aligned name/value
// lines, grouped by top-level prefix with a blank line between groups
// — the simulation's `netstat -s`. prefix, when non-empty, restricts
// the listing ("host.pc1", "radio."). Histograms render as a one-line
// percentile summary (count, mean, p50/p95/p99) instead of a raw
// sample count; the JSON and CSV forms are unchanged.
func (w *World) Netstat(out io.Writer, prefix string) {
	reg := w.Registry()
	snap := reg.Snapshot()
	width := 0
	var names []string
	for _, s := range snap {
		if !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		names = append(names, s.Name)
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	sort.Strings(names)
	lastGroup := ""
	for _, name := range names {
		group := name
		if i := strings.Index(name, "."); i >= 0 {
			if j := strings.Index(name[i+1:], "."); j >= 0 {
				group = name[:i+1+j]
			}
		}
		if lastGroup != "" && group != lastGroup {
			fmt.Fprintln(out)
		}
		lastGroup = group
		if h, ok := reg.HistogramFor(name); ok {
			fmt.Fprintf(out, "%-*s count=%d mean=%s p50=%s p95=%s p99=%s\n",
				width, name, h.Count(), obs.FormatValue(h.Mean()),
				obs.FormatValue(h.Quantile(0.50)), obs.FormatValue(h.Quantile(0.95)),
				obs.FormatValue(h.Quantile(0.99)))
			continue
		}
		v, _ := reg.Value(name)
		fmt.Fprintf(out, "%-*s %v\n", width, name, obs.FormatValue(v))
	}
}

// EnableFlightRecorder starts one bounded ring of scheduler events and
// MAC protocol transitions for the whole world (capacity <= 0 takes
// the default). It installs every scheduler's EventHook and every
// existing DAMA controller's Trace, so enable it after the topology is
// built. Each hook stamps its entries with the clock of the scheduler
// it runs on. The hooks add no events and no allocations, but gated
// runs (the CI event counter) should leave them off all the same.
func (w *World) EnableFlightRecorder(capacity int) *obs.FlightRecorder {
	fr := obs.NewFlightRecorder(capacity)
	for _, s := range w.schedulers() {
		s.EventHook = fr.SchedHook()
	}
	for ch, ctl := range w.dama {
		cn := metricName(w.ChannelName(ch))
		sched := ch.Scheduler()
		ctl.Trace = func(event, who string) {
			fr.Record(sched.Now(), "dama", cn+" "+event, who)
		}
	}
	return fr
}

// ChannelName reverse-maps a channel to the name it was created under
// ("" if foreign).
func (w *World) ChannelName(ch *radio.Channel) string {
	for name, c := range w.channels {
		if c == ch {
			return name
		}
	}
	return ""
}

// Channels lists the world's channels by name.
func (w *World) Channels() map[string]*radio.Channel { return w.channels }

// seams returns the world's seam recorder, installing it on first use:
// exactly one hook at every packet seam of every host and channel
// built so far — stack, ARP hold queue, KISS line, MAC, the air, and
// the stack, driver and TNC drops. Each hook stamps its crossings with
// the clock of the scheduler it runs on, and journeys are kept per
// packet, so every view of the recorder is bit-identical on both
// engines. The recorder owns those hook slots; hosts and channels
// added later are not observed. The air hook sees only the receivers
// the channel hands a frame to (radio.Channel.Tap): every station that
// takes the frame, the link-layer addressee among them, which is the
// one copy a journey crosses.
func (w *World) seams() *obs.Recorder {
	if w.rec != nil {
		return w.rec
	}
	r := obs.NewRecorder()
	w.rec = r
	w.masterArgs = make(map[*radio.Transceiver]string)
	for _, ch := range w.channels {
		ln := r.Lane(ch.Scheduler().Now)
		ch.Tap = func(_, receiver *radio.Transceiver, payload []byte, outcome radio.TapOutcome, _ bool) {
			ln.Air(receiver.Name, payload, outcome.String())
		}
	}
	for name, h := range w.hosts {
		ln := r.Lane(h.Sched().Now)
		var addrs []ip.Addr
		for _, ifName := range h.Stack.IfNames() {
			if addr, _, ok := h.Stack.IfAddr(ifName); ok {
				addrs = append(addrs, addr)
			}
		}
		h.Stack.Tap = ln.StackTap(name, addrs...)
		h.Stack.OnDrop = ln.StackDropTap(name)
		drop := ln.DropTap(name)
		for ifName, p := range h.radios {
			p.Driver.Tap = ln.KISSTap(name, ifName, p.Driver.MyCall)
			p.Driver.Resolver().Trace = ln.ARPTap(name)
			p.Driver.OnDrop, p.TNC.OnDrop = drop, drop
			rf := p.RF
			rf.TraceMAC = func(event string, frame []byte, deferrals uint64) {
				ln.MAC(rf.Name, event, frame, w.macWaitCause(rf, event, deferrals))
			}
		}
	}
	return r
}

// macWaitCause names what a frame keying up waited on, for the
// mac-wait span's argument: the DAMA master's callsign (or a
// mid-election marker) on a polled channel, the deferral count under
// CSMA. Each argument is built once, so a traced key-up allocates none.
func (w *World) macWaitCause(rf *radio.Transceiver, event string, deferrals uint64) string {
	if event != "tx-start" {
		return ""
	}
	if ctl, ok := w.dama[rf.Channel()]; ok {
		m := ctl.Master()
		if m == nil {
			return "election"
		}
		arg, ok := w.masterArgs[m]
		if !ok {
			arg = "master=" + m.Name
			w.masterArgs[m] = arg
		}
		return arg
	}
	if deferrals < uint64(len(deferralArgs)) {
		return deferralArgs[deferrals]
	}
	return "deferrals=" + strconv.FormatUint(deferrals, 10)
}

// deferralArgs holds the mac-wait arguments of the common deferral
// counts.
var deferralArgs = func() (args [64]string) {
	for n := range args {
		args[n] = "deferrals=" + strconv.Itoa(n)
	}
	return args
}()

// AttachTracer wires an obs.Tracer into every seam of the world (see
// seams): stack origination/forwarding/arrival, the ARP hold-queue
// wait, the KISS serial seam, MAC queue/key-up (with the CSMA deferral
// count or the DAMA master's name), and the on-air arrival at the
// addressee. Attach after the topology is built and before traffic
// starts; read Breakdown between runs, and the journeys through
// Tracer.Collect. Idempotent — a second
// call returns the same tracer. A world that never attaches a
// recorder view installs none of these hooks and pays nothing — the
// contract TestTracingDisabledAddsNoAllocs gates.
func (w *World) AttachTracer() *obs.Tracer {
	if w.tracer == nil {
		w.tracer = w.seams().Tracer()
	}
	return w.tracer
}

// Tracer returns the attached tracer (nil when tracing is off).
func (w *World) Tracer() *obs.Tracer { return w.tracer }

// AttachPingLedger wires a PingLedger into every seam of the world
// (see seams): each ping's journey is staged through its ladder, air
// losses are pinned at the intended receiver, and queue drops pin
// their reasons. Attach after the topology is built and before traffic
// starts. The hooks add no scheduler events, so ledgered runs keep
// their event counts — E16 attaches one to explain every undelivered
// ping.
func (w *World) AttachPingLedger() *obs.PingLedger { return w.seams().PingLedger() }

// CapturePort attaches a pcap capture to one radio port's KISS/serial
// seam: every frame crossing between host and TNC, both directions,
// as DLT_AX25_KISS records stamped with the port's virtual clock.
// filter (nil = everything) screens on the IP datagram inside data
// frames; KISS parameter frames are captured only by a nil/match-all
// filter.
func (w *World) CapturePort(host, ifName string, out io.Writer, filter *obs.Filter) (*obs.PcapWriter, error) {
	h, ok := w.hosts[host]
	if !ok {
		return nil, fmt.Errorf("world: no host %q", host)
	}
	if _, ok := h.radios[ifName]; !ok {
		return nil, fmt.Errorf("world: host %q has no radio %q", host, ifName)
	}
	pw, err := obs.NewPcapWriter(out, obs.LinkTypeAX25KISS)
	if err != nil {
		return nil, err
	}
	w.seams().Subscribe(func(t sim.Time, ev obs.SeamEvent) {
		if ev.Seam == obs.SeamKISS && ev.Who == host && ev.If == ifName && filter.Match(ev.Pkt) {
			pw.WritePacket(t, ev.Raw)
		}
	})
	return pw, nil
}

// CaptureIP attaches a pcap capture at a host's IP layer (the netif
// seam): every datagram the stack receives, originates or forwards,
// as DLT_RAW records stamped with the host's virtual clock.
func (w *World) CaptureIP(host string, out io.Writer, filter *obs.Filter) (*obs.PcapWriter, error) {
	if _, ok := w.hosts[host]; !ok {
		return nil, fmt.Errorf("world: no host %q", host)
	}
	pw, err := obs.NewPcapWriter(out, obs.LinkTypeRaw)
	if err != nil {
		return nil, err
	}
	w.seams().Subscribe(func(t sim.Time, ev obs.SeamEvent) {
		if ev.Seam != obs.SeamStack || ev.Who != host || !filter.Match(ev.Pkt) {
			return
		}
		if buf, err := ev.Pkt.Marshal(); err == nil {
			pw.WritePacket(t, buf)
		}
	})
	return pw, nil
}
