// Package world assembles complete simulated internets out of the
// substrate packages: Ethernet segments, radio channels, hosts,
// digipeaters and gateways. Examples, integration tests and every
// experiment harness build their topologies here.
//
// The canned Seattle scenario reproduces the paper's §2.3 deployment:
// a MicroVAX gateway ("uw-gw") with one leg on the department Ethernet
// (net 128.95) and one on the 1200 bps packet radio channel (AMPRnet,
// 44.24.0.28), PCs running IP over radio, and Internet hosts on the
// Ethernet side.
package world

import (
	"fmt"
	"time"

	"packetradio/internal/acl"
	"packetradio/internal/ax25"
	"packetradio/internal/core"
	"packetradio/internal/dama"
	"packetradio/internal/ether"
	"packetradio/internal/ip"
	"packetradio/internal/ipstack"
	"packetradio/internal/kiss"
	"packetradio/internal/netrom"
	"packetradio/internal/obs"
	"packetradio/internal/radio"
	"packetradio/internal/rspf"
	"packetradio/internal/serial"
	"packetradio/internal/sim"
	"packetradio/internal/socket"
	"packetradio/internal/tnc"
)

// World is the top-level simulation container.
type World struct {
	// Sched is the world's scheduler. On the sharded engine (see
	// shard.go) it is the backbone shard's scheduler — its clock still
	// tracks world time, but event counts cover only that shard; use
	// EventsFired for whole-world totals.
	Sched *sim.Scheduler

	hosts    map[string]*Host
	ethers   map[string]*ether.Segment
	channels map[string]*radio.Channel
	dama     map[*radio.Channel]*dama.Controller

	// group is the sharded engine, nil on the single-loop engine (see
	// shard.go).
	group *sim.Group

	reg    *obs.Registry // lazily built by Registry(); see obs.go
	rec    *obs.Recorder // the seam recorder, installed by seams(); see obs.go
	tracer *obs.Tracer   // installed by AttachTracer

	// masterArgs holds each DAMA master's mac-wait argument, built
	// once by macWaitCause for the hooks seams() installs.
	masterArgs map[*radio.Transceiver]string
}

// New creates an empty world with a deterministic seed.
func New(seed int64) *World {
	return &World{
		Sched:    sim.NewScheduler(seed),
		hosts:    make(map[string]*Host),
		ethers:   make(map[string]*ether.Segment),
		channels: make(map[string]*radio.Channel),
		dama:     make(map[*radio.Channel]*dama.Controller),
	}
}

// DAMA creates (or returns) the demand-assigned polling controller for
// a channel — one master-election domain per frequency.
func (w *World) DAMA(ch *radio.Channel) *dama.Controller {
	if c, ok := w.dama[ch]; ok {
		return c
	}
	c := dama.New(ch)
	w.dama[ch] = c
	return c
}

// Ethernet creates (or returns) a named Ethernet segment.
func (w *World) Ethernet(name string) *ether.Segment {
	if g, ok := w.ethers[name]; ok {
		return g
	}
	g := ether.NewSegment(w.Sched, 0)
	w.ethers[name] = g
	return g
}

// Channel creates (or returns) a named radio channel at bitRate bps
// (0 means 1200).
func (w *World) Channel(name string, bitRate int) *radio.Channel {
	if c, ok := w.channels[name]; ok {
		return c
	}
	c := radio.NewChannel(w.Sched, bitRate)
	// A receiver on a world channel either filters as a KISS TNC does
	// or takes everything, so the channel can hand each unicast frame
	// to its addressees only.
	c.Classify = tnc.Classify
	w.channels[name] = c
	return c
}

// Host is one simulated machine.
type Host struct {
	Name  string
	Stack *ipstack.Stack

	world  *World
	sched  *sim.Scheduler // the host's event context (its shard)
	nics   map[string]*ether.NIC
	radios map[string]*RadioPort
	gw     *core.Gateway
	rtr    *rspf.Router
	sock   *socket.Layer
}

// Sched returns the scheduler the host's components run on — the
// world scheduler on the single-loop engine, the host's shard on the
// sharded one. Traffic generators must schedule a host's probes here.
func (h *Host) Sched() *sim.Scheduler { return h.sched }

// Sockets returns the host's socket layer — the one application-facing
// API over its TCP, UDP, raw-IP and RDM transports — creating it on
// first use. Hosts with a radio port get StreamDefaults with a
// channel-sized MSS (radio MTU − 40 bytes of headers, 216 at the AX.25
// default), so streams dialed from a radio host fit the channel
// without IP fragmentation, exactly as the paper's end hosts were
// configured. Attach radios before the first Sockets call.
func (h *Host) Sockets() *socket.Layer {
	if h.sock == nil {
		h.sock = socket.New(h.Stack)
		if len(h.radios) > 0 {
			mtu := 0
			for _, rp := range h.radios {
				if m := rp.Driver.MTU(); mtu == 0 || m < mtu {
					mtu = m
				}
			}
			h.sock.StreamDefaults.MSS = mtu - 40
		}
	}
	return h.sock
}

// RadioPort bundles the per-port hardware chain of Figure 1:
// driver ⇄ serial line ⇄ KISS TNC ⇄ transceiver ⇄ channel.
type RadioPort struct {
	Driver *core.PacketRadioIf
	TNC    *tnc.TNC
	RF     *radio.Transceiver
	Host   *serial.End // host side of the RS-232 line
	Line   *serial.End // TNC side
	MAC    MACMode     // the port's channel-access policy (MoveHost re-joins DAMA ports)
}

// Host creates (or returns) a named host.
func (w *World) Host(name string) *Host {
	if h, ok := w.hosts[name]; ok {
		return h
	}
	h := &Host{
		Name:   name,
		Stack:  ipstack.New(w.Sched, name),
		world:  w,
		sched:  w.Sched,
		nics:   make(map[string]*ether.NIC),
		radios: make(map[string]*RadioPort),
	}
	w.hosts[name] = h
	return h
}

// Hosts lists all hosts.
func (w *World) Hosts() map[string]*Host { return w.hosts }

// AttachEther puts a NIC named ifName on segment seg with the given
// address; zero mask derives the classful default.
func (h *Host) AttachEther(seg *ether.Segment, ifName string, addr ip.Addr, mask ip.Mask) *ether.NIC {
	n := seg.AttachOn(h.sched, ifName, addr, h.Stack)
	if err := n.Init(); err != nil {
		panic(err)
	}
	h.Stack.AddInterface(n, addr, mask)
	h.nics[ifName] = n
	return n
}

// MACMode selects a channel-access policy for a radio port.
type MACMode int

const (
	// MACCSMA is the paper's p-persistent carrier-sense access — the
	// default, and the only choice 1988 TNC firmware offered.
	MACCSMA MACMode = iota
	// MACDAMA joins the port to its channel's demand-assigned polling
	// controller (internal/dama): collision-free master/slave access
	// that keeps delivering past the CSMA saturation knee.
	MACDAMA
)

func (m MACMode) String() string {
	if m == MACDAMA {
		return "dama"
	}
	return "csma"
}

// ParseMACMode maps the prsim-style flag values onto a MACMode.
func ParseMACMode(s string) (MACMode, error) {
	switch s {
	case "", "csma":
		return MACCSMA, nil
	case "dama":
		return MACDAMA, nil
	}
	return MACCSMA, fmt.Errorf("unknown MAC %q (want csma or dama)", s)
}

// RadioConfig tunes an AttachRadio call. The transceiver starts at the
// KISS defaults; SetTNCParams pushes other KISS parameters through the
// TNC, as the host would.
type RadioConfig struct {
	Baud   int // serial line speed; 0 = 9600
	Filter tnc.FilterMode

	// MTU overrides the interface MTU (0 = core.DefaultMTU, the AX.25
	// 256-byte convention). Larger frames amortize the fixed per-frame
	// key-up cost — the lever the E17 bulk profile turns.
	MTU int

	// MAC selects the channel-access policy (default CSMA). DAMA ports
	// share one dama.Controller per channel, created on first use.
	MAC MACMode
}

// AttachRadio builds the full Figure 1 chain on channel ch: a KISS TNC
// with callsign call, an RS-232 line, and the packet-radio
// pseudo-driver registered with the host's stack.
func (h *Host) AttachRadio(ch *radio.Channel, ifName string, call string, addr ip.Addr, mask ip.Mask, cfg RadioConfig) *RadioPort {
	mycall := ax25.MustAddr(call)
	hostEnd, tncEnd := serial.NewLine(h.sched, cfg.Baud)
	rf := ch.Attach(call, radio.DefaultParams())
	t := tnc.New(h.sched, tncEnd, rf, mycall)
	t.SetFilter(cfg.Filter)
	// MAC selection rides below the TNC: the KISS firmware still owns
	// TXDELAY/persistence, but admission — when a queued frame may key
	// up — is the channel-access policy's. Join after tnc.New so the
	// TNC's initial KISS parameter push lands on an idle transceiver.
	if cfg.MAC == MACDAMA {
		h.world.DAMA(ch).Join(rf)
	}
	drv := core.NewPacketRadioIf(h.sched, ifName, hostEnd, mycall, addr, h.Stack)
	drv.SetMTU(cfg.MTU)
	if err := drv.Init(); err != nil {
		panic(err)
	}
	h.Stack.AddInterface(drv, addr, mask)
	port := &RadioPort{Driver: drv, TNC: t, RF: rf, Host: hostEnd, Line: tncEnd, MAC: cfg.MAC}
	h.radios[ifName] = port
	return port
}

// NIC returns a named Ethernet interface.
func (h *Host) NIC(name string) *ether.NIC { return h.nics[name] }

// Radio returns a named radio port.
func (h *Host) Radio(name string) *RadioPort { return h.radios[name] }

// EnableForwarding turns the host into a gateway.
func (h *Host) EnableForwarding() { h.Stack.Forwarding = true }

// MakeGateway marks the host as the paper's gateway: forwarding on,
// with the named radio and Ethernet interfaces, optionally guarded by
// a fresh §4.3 ACL (nil Operators leaves the gateway open).
func (h *Host) MakeGateway(radioIf, etherIf string, withACL bool) *core.Gateway {
	h.EnableForwarding()
	g := &core.Gateway{
		Stack:     h.Stack,
		Radio:     h.radios[radioIf].Driver,
		RadioName: radioIf,
		EtherName: etherIf,
	}
	if withACL {
		g.WireACL(acl.New(h.sched))
	}
	h.gw = g
	return g
}

// Gateway returns the gateway composition, if MakeGateway was called.
func (h *Host) Gateway() *core.Gateway { return h.gw }

// NetROMBackbone attaches a NET/ROM node (broadcasting NODES every 30
// simulated seconds) and an IP-over-NET/ROM tunnel interface named
// "nr0" to host h — the §2.4 gateway-to-gateway backbone attachment.
func (w *World) NetROMBackbone(ch *radio.Channel, h *Host, nodeCall string, tunnelAddr ip.Addr) *netrom.IPTunnel {
	node := netrom.NewNode(w.Sched, ch, nodeCall, nodeCall)
	node.Start()
	tun := netrom.NewIPTunnel(node, "nr0", h.Stack)
	if err := tun.Init(); err != nil {
		panic(err)
	}
	h.Stack.AddInterface(tun, tunnelAddr, ip.MaskClassC)
	return tun
}

// EnableRSPF starts a link-state routing daemon on the host, wired
// with the bit rate of every attached radio channel so link costs
// reflect the media (§4.2's escape from the single static gateway).
// Call after all interfaces are attached.
func (h *Host) EnableRSPF(cfg rspf.Config) *rspf.Router {
	if h.rtr != nil {
		return h.rtr
	}
	r := rspf.New(h.Stack, cfg)
	for name, port := range h.radios {
		r.SetBitRate(name, port.RF.Channel().BitRate)
	}
	r.Start()
	h.rtr = r
	return r
}

// RSPF returns the host's routing daemon, if EnableRSPF was called.
func (h *Host) RSPF() *rspf.Router { return h.rtr }

// --- Topology churn -----------------------------------------------------

// FailLink severs connectivity between hosts a and b on every medium
// they share: radio transceivers on a common channel stop hearing each
// other (both directions) and NICs on a common Ethernet segment stop
// exchanging frames. Unknown host names panic — a typo here would
// otherwise silently turn a failure experiment into a no-op.
func (w *World) FailLink(a, b string) { w.setLink(a, b, false) }

// HealLink restores connectivity severed by FailLink.
func (w *World) HealLink(a, b string) { w.setLink(a, b, true) }

func (w *World) setLink(a, b string, ok bool) {
	ha, okA := w.hosts[a]
	hb, okB := w.hosts[b]
	if !okA || !okB {
		panic(fmt.Sprintf("world: setLink(%q, %q): unknown host", a, b))
	}
	for _, pa := range ha.radios {
		for _, pb := range hb.radios {
			if ch := pa.RF.Channel(); ch == pb.RF.Channel() {
				ch.SetReachable(pa.RF, pb.RF, ok)
				ch.SetReachable(pb.RF, pa.RF, ok)
			}
		}
	}
	for _, na := range ha.nics {
		for _, nb := range hb.nics {
			if seg := na.Segment(); seg == nb.Segment() {
				seg.SetReachable(na, nb, ok)
				seg.SetReachable(nb, na, ok)
			}
		}
	}
}

// MoveHost retunes the host's named radio port onto another channel —
// a portable station driving across town. The host keeps its IP
// address; with RSPF running it forms new adjacencies on the new
// channel and the network re-learns its /32 stub through them.
func (w *World) MoveHost(host, ifName string, to *radio.Channel) {
	h, ok := w.hosts[host]
	if !ok {
		panic(fmt.Sprintf("world: MoveHost(%q): unknown host", host))
	}
	port, ok := h.radios[ifName]
	if !ok {
		panic(fmt.Sprintf("world: MoveHost(%q, %q): no such radio port", host, ifName))
	}
	port.RF.Retune(to)
	// A DAMA port re-registers with the destination channel's polling
	// domain (Retune already detached it from the old controller and
	// dropped it back to CSMA).
	if port.MAC == MACDAMA {
		w.DAMA(to).Join(port.RF)
	}
	if h.rtr != nil {
		h.rtr.SetBitRate(ifName, to.BitRate)
	}
}

// Digipeater places a standalone digipeater station on ch.
func (w *World) Digipeater(ch *radio.Channel, call string) *tnc.Digipeater {
	rf := ch.Attach(call, radio.DefaultParams())
	return tnc.NewDigipeater(ax25.MustAddr(call), rf)
}

// Run advances the world d of simulated time — the whole shard group
// on the sharded engine.
func (w *World) Run(d time.Duration) {
	if w.group != nil {
		w.group.RunFor(d)
	} else {
		w.Sched.RunFor(d)
	}
}

// --- The canned Seattle scenario (paper §2.3) ---------------------------

// Seattle holds the pieces of the canned scenario for tests and
// examples to poke at.
type Seattle struct {
	W *World

	Gateway   *Host // uw-gw: MicroVAX, 128.95.1.1 / 44.24.0.28
	GatewayGW *core.Gateway
	Internet  *Host   // june: 128.95.1.2 (the "other system on our Ethernet")
	PCs       []*Host // pc1..pcN: 44.24.0.10+i on the radio channel
	Ether     *ether.Segment
	Channel   *radio.Channel

	// Gateway2 is the optional second MicroVAX (uw-gw2, 128.95.1.3 /
	// 44.24.0.29) that SecondGateway adds — the redundancy §4.2's
	// single-static-gateway routing cannot exploit but RSPF can.
	Gateway2   *Host
	Gateway2GW *core.Gateway
}

// SeattleConfig tunes the canned scenario.
type SeattleConfig struct {
	Seed      int64
	NumPCs    int  // default 2
	BitRate   int  // radio channel, default 1200
	Baud      int  // gateway serial line, default 9600
	RadioMTU  int  // every radio port's MTU; 0 = core.DefaultMTU (256)
	WithACL   bool // enable §4.3 access control
	TNCFilter tnc.FilterMode

	// SecondGateway adds uw-gw2 on both the Ethernet and the radio
	// channel, for failover and churn scenarios.
	SecondGateway bool

	// NoStaticRoutes skips the era's hand-configured routes (june's
	// net-44 route, the PCs' default). Hosts then reach off-link
	// destinations only once a routing daemon installs routes — the
	// starting state for the RSPF experiments.
	NoStaticRoutes bool

	// MAC selects the channel-access policy for every radio port
	// (default CSMA; prsim's -mac flag lands here).
	MAC MACMode
}

// GatewayIP is the paper's actual gateway address: "the packet radio
// interface was enabled at the Internet address of 44.24.0.28".
var GatewayIP = ip.MustAddr("44.24.0.28")

// GatewayEtherIP is the gateway's Ethernet-side address (net 128.95,
// the University of Washington class B).
var GatewayEtherIP = ip.MustAddr("128.95.1.1")

// InternetIP is the Ethernet host used to reach the gateway.
var InternetIP = ip.MustAddr("128.95.1.2")

// Gateway2IP is the second gateway's radio-side address.
var Gateway2IP = ip.MustAddr("44.24.0.29")

// Gateway2EtherIP is the second gateway's Ethernet-side address.
var Gateway2EtherIP = ip.MustAddr("128.95.1.3")

// PCIP returns the address of radio PC i (0-based).
func PCIP(i int) ip.Addr { return ip.AddrFrom(44, 24, 0, byte(10+i)) }

// PCCall returns the callsign of radio PC i.
func PCCall(i int) string { return fmt.Sprintf("PC%d", i+1) }

// NewSeattle builds the scenario.
func NewSeattle(cfg SeattleConfig) *Seattle {
	if cfg.NumPCs <= 0 {
		cfg.NumPCs = 2
	}
	w := New(cfg.Seed)
	s := &Seattle{W: w}
	s.Ether = w.Ethernet("uw-cs")
	s.Channel = w.Channel("145.01", cfg.BitRate)

	// The gateway MicroVAX.
	gw := w.Host("uw-gw")
	gw.AttachEther(s.Ether, "qe0", GatewayEtherIP, ip.MaskClassB)
	gw.AttachRadio(s.Channel, "pr0", "N7AKR", GatewayIP, ip.MaskClassA,
		RadioConfig{Baud: cfg.Baud, Filter: cfg.TNCFilter, MTU: cfg.RadioMTU, MAC: cfg.MAC})
	s.GatewayGW = gw.MakeGateway("pr0", "qe0", cfg.WithACL)
	s.Gateway = gw

	if cfg.SecondGateway {
		gw2 := w.Host("uw-gw2")
		gw2.AttachEther(s.Ether, "qe0", Gateway2EtherIP, ip.MaskClassB)
		gw2.AttachRadio(s.Channel, "pr0", "N7BKR", Gateway2IP, ip.MaskClassA,
			RadioConfig{Baud: cfg.Baud, Filter: cfg.TNCFilter, MTU: cfg.RadioMTU, MAC: cfg.MAC})
		s.Gateway2GW = gw2.MakeGateway("pr0", "qe0", cfg.WithACL)
		s.Gateway2 = gw2
	}

	// An Internet host on the Ethernet, with its routing table
	// modified "so it knew that 44.24.0.28 was the address of a
	// gateway to net 44".
	inet := w.Host("june")
	inet.AttachEther(s.Ether, "qe0", InternetIP, ip.MaskClassB)
	if !cfg.NoStaticRoutes {
		inet.Stack.Routes.AddNet(ip.MustAddr("44.0.0.0"), ip.MaskClassA, GatewayEtherIP, "qe0")
	}
	s.Internet = inet

	// PCs on the radio channel ("an isolated IBM PC ... connected to
	// only a power outlet and a radio").
	for i := 0; i < cfg.NumPCs; i++ {
		pc := w.Host(fmt.Sprintf("pc%d", i+1))
		pc.AttachRadio(s.Channel, "pr0", PCCall(i), PCIP(i), ip.MaskClassA,
			RadioConfig{Baud: cfg.Baud, MTU: cfg.RadioMTU, MAC: cfg.MAC})
		// Everything off net 44 goes via the gateway's radio address.
		if !cfg.NoStaticRoutes {
			pc.Stack.Routes.AddDefault(GatewayIP, "pr0")
		}
		s.PCs = append(s.PCs, pc)
	}
	return s
}

// EnableRSPF starts an RSPF daemon on every host in the scenario and
// returns them in a stable order (gateway, second gateway, june, PCs).
func (s *Seattle) EnableRSPF(cfg rspf.Config) []*rspf.Router {
	hosts := []*Host{s.Gateway}
	if s.Gateway2 != nil {
		hosts = append(hosts, s.Gateway2)
	}
	hosts = append(hosts, s.Internet)
	hosts = append(hosts, s.PCs...)
	routers := make([]*rspf.Router, 0, len(hosts))
	for _, h := range hosts {
		routers = append(routers, h.EnableRSPF(cfg))
	}
	return routers
}

// SetTNCParams pushes fast KISS parameters to every radio port —
// useful in tests that want short TXDELAYs.
func (h *Host) SetTNCParams(p kiss.Params) {
	for _, rp := range h.radios {
		rp.Driver.SetTNCParams(p)
	}
}
