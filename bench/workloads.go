package bench

import (
	"fmt"
	"io"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/ipstack"
	"packetradio/internal/world"
)

// Workload is one world the benchmark builds from a seed and steps
// through a timed window.
type Workload struct {
	Name string

	// unit is the simulated time one unit of work covers: one ping
	// followed by a minute of simulated time, or one simulated second.
	unit time.Duration
	// perSecond is the nominal number of units one wall second covers on
	// the reference machine (2-core Xeon, Go 1.24). The timed window is
	// perSecond × Config.Seconds units, so a run does the same simulated
	// work on every commit and takes about Config.Seconds there.
	perSecond float64
	// roundTo rounds the window to a whole number of these units: the
	// regional worlds send one probe per station per simulated minute,
	// so a window of whole minutes has an exact expected probe count.
	roundTo int
	// minDelivery is the lowest replies/sent share a correct run shows.
	minDelivery float64

	build func(seed int64) instance
}

// units sizes the timed window for a run of about seconds wall seconds.
func (w *Workload) units(seconds float64) int {
	n := int(w.perSecond*seconds/float64(w.roundTo)+0.5) * w.roundTo
	if n < w.roundTo {
		n = w.roundTo
	}
	return n
}

// instance is one built, warmed-up world.
type instance interface {
	world() *world.World
	// mark starts a timed window: probe accounting restarts from here.
	mark()
	// run advances the world by n units of work.
	run(n int)
	// probes reports the window's probe accounting so far.
	probes() probeStats
	// expectedSent is the exact probe count a window of n units sends.
	expectedSent(n int) uint64
}

type probeStats struct {
	sent, replies uint64
	rttHash       uint64     // FNV-1a over the window's RTTs, in order
	rtts          uint64     // RTT samples seen in the window
	latency       *Histogram // wall time per ping, nil where not measured
}

// Workloads lists the benchmark's workloads in run order.
var Workloads = []*Workload{
	// Closed-loop warm pings through the Figure-1 world: per-packet
	// datapath cost (serial, KISS, AX.25, driver, IP) on a tiny event
	// heap, with no contention, shards or obs.
	{
		Name:        "seattle-ping",
		unit:        time.Minute,
		perSecond:   100000,
		roundTo:     1,
		minDelivery: 1,
		build:       buildSeattle,
	},
	// 1000 stations on 40 CSMA channels, sharded on 2 workers: shard
	// coordination, radio contention and receiver-side AX.25 decode.
	// This is the E18 cell where sharding loses.
	{
		Name:        "regional-1000",
		unit:        time.Second,
		perSecond:   1000,
		roundTo:     60,
		minDelivery: 0.5,
		build:       regionalBuilder(false),
	},
	// regional-1000 with the ping ledger, span tracer, flight recorder
	// and a pcap capture attached: its gap to regional-1000 is the wall
	// cost of the obs taps.
	{
		Name:        "regional-1000-obs",
		unit:        time.Second,
		perSecond:   500,
		roundTo:     60,
		minDelivery: 0.5,
		build:       regionalBuilder(true),
	},
	// 200 stations on 25 channels sending reliable RDM probes on the
	// single loop: per-message timers make Cancel and Reschedule heavy
	// in the scheduler heap, through socket, rdm and ipstack.
	{
		Name:        "regional-rdm",
		unit:        time.Second,
		perSecond:   3300,
		roundTo:     60,
		minDelivery: 0.85,
		build:       buildRDM,
	},
}

// Lookup returns the named workload.
func Lookup(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- seattle-ping -------------------------------------------------------

// seattlePing is the paper's Figure-1 world with one PC whose ARP entry
// for the gateway is already warm; the PC pings the gateway's radio
// address in a closed loop, one ping per simulated minute.
type seattlePing struct {
	s     *world.Seattle
	stack *ipstack.Stack
	cb    func(uint16, time.Duration, ip.Addr)

	t0   time.Time
	st   probeStats
	hist Histogram
}

func buildSeattle(seed int64) instance {
	s := world.NewSeattle(world.SeattleConfig{Seed: seed, NumPCs: 1})
	p := &seattlePing{s: s, stack: s.PCs[0].Stack}
	p.cb = p.reply
	warm := false
	p.stack.Ping(world.GatewayIP, 8, func(uint16, time.Duration, ip.Addr) { warm = true })
	s.W.Run(5 * time.Minute)
	if !warm {
		panic("bench: seattle-ping warm-up ping got no reply")
	}
	return p
}

func (p *seattlePing) world() *world.World { return p.s.W }

func (p *seattlePing) mark() {
	p.hist = Histogram{}
	p.st = probeStats{rttHash: fnvOffset, latency: &p.hist}
}

func (p *seattlePing) reply(_ uint16, rtt time.Duration, _ ip.Addr) {
	p.hist.Record(time.Since(p.t0))
	p.st.replies++
	p.st.rtts++
	p.st.rttHash = rttHash(p.st.rttHash, rtt)
}

func (p *seattlePing) run(n int) {
	for i := 0; i < n; i++ {
		p.st.sent++
		p.t0 = time.Now()
		p.stack.Ping(world.GatewayIP, 64, p.cb)
		p.s.W.Run(time.Minute)
	}
}

func (p *seattlePing) probes() probeStats { return p.st }

func (p *seattlePing) expectedSent(n int) uint64 { return uint64(n) }

// --- regional worlds ----------------------------------------------------

// regional wraps a NewLarge world whose stations each probe the
// Internet host once per simulated minute, phase-spread across the
// minute.
type regional struct {
	lw *world.Large

	sent0, replies0 uint64
	rtts0           int
}

// warmUp is the untimed start of every regional world: ARP settles and
// the first probe wave goes out.
const warmUp = 30 * time.Second

func regionalBuilder(withObs bool) func(int64) instance {
	return func(seed int64) instance {
		lw := world.NewLarge(world.LargeConfig{
			Seed: seed, Stations: 1000, Channels: 40,
			PingInterval: time.Minute, Workers: 2,
		})
		if withObs {
			lw.W.AttachPingLedger()
			lw.W.AttachTracer()
			lw.W.EnableFlightRecorder(0)
			if _, err := lw.W.CapturePort("gw1", "pr0", io.Discard, nil); err != nil {
				panic(err)
			}
		}
		lw.W.Run(warmUp)
		return &regional{lw: lw}
	}
}

func buildRDM(seed int64) instance {
	lw := world.NewLarge(world.LargeConfig{
		Seed: seed, Stations: 200, Channels: 25,
		PingInterval: time.Minute, Transport: world.TransportRDM,
	})
	lw.W.Run(warmUp)
	return &regional{lw: lw}
}

func (r *regional) world() *world.World { return r.lw.W }

func (r *regional) mark() {
	r.sent0, r.replies0, r.rtts0 = r.lw.Sent, r.lw.Replies, len(r.lw.RTTs)
}

// run advances the engine itself, as World.Run does, but without the
// world's run-end hook: that hook merges the per-channel probe records
// by re-sorting every RTT so far (155 ms at the end of a default
// regional-1000 window), so running it after every slice would make it
// the window's largest cost. probes runs it once, after the window.
func (r *regional) run(n int) {
	d := time.Duration(n) * time.Second
	if g := r.lw.W.Shards(); g != nil {
		g.RunFor(d)
	} else {
		r.lw.W.Sched.RunFor(d)
	}
}

// probes reads the window's accounting. World.Run(0) advances nothing
// and fires the run-end merge, which rebuilds RTTs in (virtual time,
// channel) order, so the samples past the mark are exactly the
// window's replies.
func (r *regional) probes() probeStats {
	r.lw.W.Run(0)
	st := probeStats{
		sent:    r.lw.Sent - r.sent0,
		replies: r.lw.Replies - r.replies0,
		rttHash: fnvOffset,
	}
	for _, rtt := range r.lw.RTTs[r.rtts0:] {
		st.rttHash = rttHash(st.rttHash, rtt)
		st.rtts++
	}
	return st
}

// expectedSent: every station sends exactly one probe in each
// simulated minute, so a window of whole minutes sends stations ×
// minutes probes.
func (r *regional) expectedSent(n int) uint64 {
	return uint64(len(r.lw.Stations)) * uint64(n/60)
}
