package rspf

import (
	"sort"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/ipstack"
	"packetradio/internal/route"
	"packetradio/internal/sim"
	"packetradio/internal/socket"
)

// DefaultOwner tags the routes this daemon installs in route.Table.
const DefaultOwner = "rspf"

// Config tunes a Router. Zero values select defaults sized for the
// 1200 bps channel: timers are long because every hello costs ~0.4 s
// of airtime there, and a chatty routing protocol would eat the very
// capacity it is supposed to manage (E12 quantifies this).
//
// The neighbor dead interval (4× hello) and the LSA lifetime (3×
// refresh) follow from the two intervals.
type Config struct {
	HelloInterval   time.Duration // adjacency probe period (default 30 s)
	RefreshInterval time.Duration // periodic LSA re-origination (default 10 min)
}

const (
	spfHold     = time.Second     // batching delay before SPF / re-origination
	floodJitter = 2 * time.Second // max random delay before each flood send
	refBitRate  = 10_000_000      // bit rate that costs 1 (10 Mb/s, Ethernet)
)

func (c Config) withDefaults() Config {
	if c.HelloInterval <= 0 {
		c.HelloInterval = 30 * time.Second
	}
	if c.RefreshInterval <= 0 {
		c.RefreshInterval = 10 * time.Minute
	}
	return c
}

// deadInterval is the silence after which a neighbor is dead.
func (c Config) deadInterval() time.Duration { return 4 * c.HelloInterval }

// maxAge is an LSA's lifetime without refresh.
func (c Config) maxAge() time.Duration { return 3 * c.RefreshInterval }

// Stats counts daemon events.
type Stats struct {
	HellosSent      uint64
	HellosRecv      uint64
	LSAsOriginated  uint64
	LSAsRecv        uint64
	LSAsFlooded     uint64 // adopted and re-flooded
	LSAsDuplicate   uint64 // received but not newer than stored
	SPFRuns         uint64
	AdjUp           uint64
	AdjDown         uint64
	BytesSent       uint64
	RoutesInstalled int // size of the last SPF's route set (gauge)
}

// neighbor is one adjacency on one interface.
type neighbor struct {
	addr      ip.Addr // source address of its hellos (the next hop)
	ifName    string
	lastHeard sim.Time
	lastSeq   uint32
	expected  uint32 // hello-loss window: hellos the seq numbers imply
	received  uint32 // hellos actually heard
	twoWay    bool
}

// lossFraction estimates link loss from the hello window, quantized
// into coarse buckets (0, ¼, ½, ¾, 1). The quantization is hysteresis:
// losing one hello out of ten must not change the advertised cost, or
// every wobble of the estimate re-originates an LSA and the routing
// protocol's own flood traffic congests the channel it is measuring.
// It reports 0 until at least four hellos are expected, so a fresh
// adjacency is not priced by noise.
func (n *neighbor) lossFraction() float64 {
	if n.expected < 4 {
		return 0
	}
	loss := 1 - float64(n.received)/float64(n.expected)
	switch {
	case loss < 0.2:
		return 0
	case loss < 0.45:
		return 0.25
	case loss < 0.7:
		return 0.5
	case loss < 0.9:
		return 0.75
	default:
		return 1
	}
}

// Router is one per-stack RSPF daemon.
type Router struct {
	Cfg   Config
	Stats Stats

	stack *ipstack.Stack
	sched *sim.Scheduler
	id    ip.Addr

	bitRate  map[string]int                   // per-interface channel bit rate
	nbrs     map[string]map[ip.Addr]*neighbor // ifName -> router ID -> adjacency
	db       *Database
	seq      uint32
	helloSeq map[string]uint32

	// staleResp rate-limits stale-LSA responses per originating
	// router (restart recovery needs one response, not a chorus).
	staleResp map[ip.Addr]sim.Time

	running       bool
	sock          *socket.Socket // SOCK_RAW for protocol 73
	helloEv       *sim.Event
	refreshEv     *sim.Event
	deadTicker    *sim.Ticker
	spfPending    bool
	originPending bool
}

// New builds a daemon over st. Attach all interfaces before calling
// Start; the router ID is the stack's primary address.
func New(st *ipstack.Stack, cfg Config) *Router {
	return &Router{
		Cfg:       cfg.withDefaults(),
		stack:     st,
		sched:     st.Sched,
		bitRate:   make(map[string]int),
		nbrs:      make(map[string]map[ip.Addr]*neighbor),
		db:        NewDatabase(),
		helloSeq:  make(map[string]uint32),
		staleResp: make(map[ip.Addr]sim.Time),
	}
}

// SetBitRate declares the channel bit rate behind an interface, from
// which the base link cost is derived (refBitRate/bps). Interfaces
// without a declared rate cost 1, appropriate for Ethernet.
func (r *Router) SetBitRate(ifName string, bps int) {
	if bps > 0 {
		r.bitRate[ifName] = bps
	}
}

// ID reports the router ID (valid after Start).
func (r *Router) ID() ip.Addr { return r.id }

// Database exposes the LSDB for tests and experiments.
func (r *Router) Database() *Database { return r.db }

// Start opens the daemon's raw socket (SOCK_RAW, protocol 73 — like
// the real RSPF daemon, it needs no kernel support beyond raw IP),
// announces ourselves, and begins the hello/refresh timer chains.
// Each timer period is jittered ±10% from the scheduler's seeded
// random source so co-located routers desynchronize deterministically.
func (r *Router) Start() {
	if r.running {
		return
	}
	sock, err := socket.NewRaw(r.stack, Proto)
	if err != nil {
		// Protocol 73 is already claimed on this stack; a silently
		// dead routing daemon would be undebuggable, so fail loudly.
		panic("rspf: " + r.stack.Hostname + ": " + err.Error())
	}
	r.sock = sock
	socket.PumpDatagrams(sock, r.input)
	r.running = true
	r.id = r.stack.Addr()
	r.originate()
	r.sendHellos()
	r.scheduleHello()
	r.scheduleRefresh()
	r.deadTicker = r.sched.Every(r.Cfg.HelloInterval, r.deadScan)
}

// Stop halts the daemon and withdraws every route it installed.
func (r *Router) Stop() {
	if !r.running {
		return
	}
	r.running = false
	r.sock.Close() // releases protocol 73 for a future Start
	r.sock = nil
	r.sched.Cancel(r.helloEv)
	r.sched.Cancel(r.refreshEv)
	r.deadTicker.Stop()
	r.stack.Routes.WithdrawOwner(DefaultOwner)
	r.Stats.RoutesInstalled = 0
}

func (r *Router) jittered(d time.Duration) time.Duration {
	f := 0.9 + 0.2*r.sched.Rand().Float64()
	return time.Duration(float64(d) * f)
}

func (r *Router) scheduleHello() {
	r.helloEv = r.sched.After(r.jittered(r.Cfg.HelloInterval), func() {
		if !r.running {
			return
		}
		r.sendHellos()
		r.scheduleHello()
	})
}

func (r *Router) scheduleRefresh() {
	r.refreshEv = r.sched.After(r.jittered(r.Cfg.RefreshInterval), func() {
		if !r.running {
			return
		}
		r.db.Purge(r.sched.Now().Add(-r.Cfg.maxAge()), r.id)
		r.originate()
		r.scheduleRefresh()
	})
}

// ifNames is the deterministic interface iteration order.
func (r *Router) ifNames() []string { return r.stack.IfNames() }

func (r *Router) nbrIDs(ifName string) []ip.Addr {
	m := r.nbrs[ifName]
	ids := make([]ip.Addr, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Uint32() < ids[j].Uint32() })
	return ids
}

// --- Hello / adjacency --------------------------------------------------

func (r *Router) sendHellos() {
	now := r.sched.Now()
	for _, ifName := range r.ifNames() {
		var heard []ip.Addr
		for _, id := range r.nbrIDs(ifName) {
			if now.Sub(r.nbrs[ifName][id].lastHeard) <= r.Cfg.deadInterval() {
				heard = append(heard, id)
			}
		}
		r.helloSeq[ifName]++
		h := &Hello{Router: r.id, Seq: r.helloSeq[ifName], Heard: heard}
		r.send(ifName, h.Marshal())
		r.Stats.HellosSent++
	}
}

func (r *Router) send(ifName string, payload []byte) {
	r.Stats.BytesSent += uint64(len(payload))
	_ = r.sock.SendVia(ifName, ip.Limited, payload)
}

func (r *Router) input(d socket.Datagram) {
	if !r.running || d.Src == r.id {
		return
	}
	msg, err := Decode(d.Data)
	if err != nil {
		return
	}
	switch m := msg.(type) {
	case *Hello:
		r.handleHello(m, d.Src, d.IfName)
	case *LSA:
		r.handleLSA(m, d.IfName)
	}
}

func (r *Router) handleHello(h *Hello, src ip.Addr, ifName string) {
	if h.Router == r.id {
		return
	}
	r.Stats.HellosRecv++
	m := r.nbrs[ifName]
	if m == nil {
		m = make(map[ip.Addr]*neighbor)
		r.nbrs[ifName] = m
	}
	n, ok := m[h.Router]
	if !ok {
		n = &neighbor{ifName: ifName, lastSeq: h.Seq}
		m[h.Router] = n
	} else {
		// Advance the loss window by the sequence gap; decay it so old
		// loss fades and a healed link's cost recovers.
		delta := h.Seq - n.lastSeq
		if delta == 0 || delta > 64 {
			delta = 1
		}
		n.expected += delta
		n.received++
		if n.expected > 32 {
			n.expected /= 2
			n.received /= 2
		}
	}
	n.addr = src
	n.lastSeq = h.Seq
	n.lastHeard = r.sched.Now()
	wasTwoWay := n.twoWay
	n.twoWay = false
	for _, id := range h.Heard {
		if id == r.id {
			n.twoWay = true
			break
		}
	}
	if n.twoWay != wasTwoWay {
		if n.twoWay {
			r.Stats.AdjUp++
		} else {
			r.Stats.AdjDown++
		}
		r.scheduleOriginate()
	}
}

// currentLinkCosts computes the cost to advertise for each two-way
// neighbor: the cheapest link when a router is heard on several
// interfaces. runSPF's first-hop selection applies the same
// cheapest-link rule, so forwarding always uses the link these
// advertised metrics were priced on.
func (r *Router) currentLinkCosts() map[ip.Addr]uint16 {
	costs := make(map[ip.Addr]uint16)
	for _, ifName := range r.ifNames() {
		for _, id := range r.nbrIDs(ifName) {
			n := r.nbrs[ifName][id]
			if !n.twoWay {
				continue
			}
			c := r.linkCost(n)
			if old, ok := costs[id]; !ok || c < old {
				costs[id] = c
			}
		}
	}
	return costs
}

// deadScan expires silent neighbors. Only an adjacency change
// triggers immediate re-origination; a drifted link cost waits for
// the periodic refresh. Re-originating on drift couples the estimator
// to the congestion it measures — collisions shift a loss bucket, the
// new LSA floods, the floods collide, loss rises further — and the
// channel locks into saturation. Deferring cost updates to the
// refresh breaks that loop while the critical signal (a dead or new
// neighbor) still propagates at once.
func (r *Router) deadScan() {
	if !r.running {
		return
	}
	now := r.sched.Now()
	changed := false
	for _, ifName := range r.ifNames() {
		for _, id := range r.nbrIDs(ifName) {
			n := r.nbrs[ifName][id]
			if now.Sub(n.lastHeard) > r.Cfg.deadInterval() {
				delete(r.nbrs[ifName], id)
				if n.twoWay {
					r.Stats.AdjDown++
					changed = true
				}
			}
		}
	}
	if changed {
		r.scheduleOriginate()
	}
}

// --- Costs --------------------------------------------------------------

// ifCost is the loss-free cost of an interface: refBitRate divided by
// the channel bit rate, so a 10 Mb/s Ethernet hop costs 1 and a 1200
// bps radio hop costs ~8333 — Dijkstra then prefers any Ethernet
// detour over an extra radio hop, which is exactly right at these
// speeds.
func (r *Router) ifCost(ifName string) uint16 {
	bps, ok := r.bitRate[ifName]
	if !ok {
		return 1
	}
	c := refBitRate / bps
	if c < 1 {
		c = 1
	}
	if c > 60000 {
		c = 60000
	}
	return uint16(c)
}

// linkCost degrades the interface cost by observed hello loss: a link
// dropping half its hellos costs double, so SPF routes around flaky
// RF paths before they die completely.
func (r *Router) linkCost(n *neighbor) uint16 {
	c := float64(r.ifCost(n.ifName)) * (1 + 2*n.lossFraction())
	if c > 60000 {
		c = 60000
	}
	if c < 1 {
		c = 1
	}
	return uint16(c)
}

// --- Origination and flooding -------------------------------------------

func (r *Router) scheduleOriginate() {
	if r.originPending {
		return
	}
	r.originPending = true
	r.sched.After(spfHold, func() {
		r.originPending = false
		if r.running {
			r.originate()
		}
	})
}

// originate rebuilds our own LSA from live two-way adjacencies and
// attached networks, installs it, and floods it.
func (r *Router) originate() {
	r.seq++
	l := &LSA{Router: r.id, Seq: r.seq}
	costs := r.currentLinkCosts()
	for id, c := range costs {
		l.Links = append(l.Links, Link{Neighbor: id, Cost: c})
	}
	sort.Slice(l.Links, func(i, j int) bool {
		return l.Links[i].Neighbor.Uint32() < l.Links[j].Neighbor.Uint32()
	})
	// Advertise attached networks: each connected prefix at the
	// interface cost, plus our own addresses as free /32 stubs so
	// hosts stay reachable by exact match when they roam off their
	// home network (MoveHost mobility).
	seen := make(map[Network]bool)
	for _, ifName := range r.ifNames() {
		addr, mask, ok := r.stack.IfAddr(ifName)
		if !ok {
			continue
		}
		net := Network{Prefix: mask.Apply(addr), Mask: mask, Cost: r.ifCost(ifName)}
		if !seen[net] {
			seen[net] = true
			l.Networks = append(l.Networks, net)
		}
		stub := Network{Prefix: addr, Mask: ip.MaskHost, Cost: 0}
		if !seen[stub] {
			seen[stub] = true
			l.Networks = append(l.Networks, stub)
		}
	}
	r.Stats.LSAsOriginated++
	r.db.Install(l, r.sched.Now())
	r.flood(l)
	r.scheduleSPF()
}

// flood re-broadcasts an adopted LSA on every interface — including
// the arrival interface, because on a radio channel with hidden
// terminals the stations behind us can only learn the LSA from our
// re-broadcast. Duplicate floods die at the sequence-number check.
// Each send is delayed by an independent random jitter: when one
// broadcast reaches several stations they all adopt in the same
// instant, and un-jittered refloods would collide with near
// certainty, destroying the hellos that keep adjacencies alive.
func (r *Router) flood(l *LSA) {
	buf := l.Marshal()
	for _, name := range r.ifNames() {
		ifName := name
		d := time.Duration(r.sched.Rand().Float64() * float64(floodJitter))
		r.sched.After(d, func() {
			if r.running {
				r.send(ifName, buf)
			}
		})
	}
}

func (r *Router) handleLSA(l *LSA, ifName string) {
	r.Stats.LSAsRecv++
	if l.Router == r.id {
		// An echo of our own advertisement. Neighbors reflooding our
		// current LSA is normal; only a strictly newer copy (we
		// restarted and the network outlived us) makes us jump past
		// it and re-announce.
		if l.Seq > r.seq {
			r.seq = l.Seq
			r.scheduleOriginate()
		}
		return
	}
	if !r.db.Install(l.Clone(), r.sched.Now()) {
		r.Stats.LSAsDuplicate++
		// Far behind our copy means the sender restarted and is
		// re-announcing from seq 1: flood the newer stored copy back
		// so it hears its own old advertisement and jumps its
		// sequence past it. Two rate limits keep this from feeding
		// back into congestion: a gap of one is just flood jitter
		// reordering two back-to-back originations (silence), and
		// each router gets at most one response per dead interval —
		// on a saturated channel refloods arrive seconds late and
		// look ancient, and an uncapped response per stale copy
		// re-saturates the channel that delayed them.
		now := r.sched.Now()
		if stored, ok := r.db.Get(l.Router); ok && stored.Seq > l.Seq+1 {
			if last, seen := r.staleResp[l.Router]; !seen || now.Sub(last) > r.Cfg.deadInterval() {
				r.staleResp[l.Router] = now
				r.flood(stored)
			}
		}
		return
	}
	r.Stats.LSAsFlooded++
	r.flood(l)
	r.scheduleSPF()
}

// --- SPF and route installation -----------------------------------------

func (r *Router) scheduleSPF() {
	if r.spfPending {
		return
	}
	r.spfPending = true
	r.sched.After(spfHold, func() {
		r.spfPending = false
		if r.running {
			r.runSPF()
		}
	})
}

// runSPF recomputes shortest paths and atomically replaces our routes:
// one route per advertised network, via the first-hop neighbor of the
// cheapest advertising router.
func (r *Router) runSPF() {
	r.Stats.SPFRuns++
	paths := r.db.ShortestPaths(r.id)

	// Resolve first-hop router IDs to (interface, next-hop address)
	// through the live adjacencies, choosing the cheapest link when a
	// neighbor is reachable on several interfaces — the same
	// selection currentLinkCosts advertised, so forwarding uses the
	// link SPF actually priced.
	type hop struct {
		ifName string
		addr   ip.Addr
		cost   uint16
	}
	adj := make(map[ip.Addr]hop)
	for _, ifName := range r.ifNames() {
		for _, id := range r.nbrIDs(ifName) {
			n := r.nbrs[ifName][id]
			if !n.twoWay {
				continue
			}
			c := r.linkCost(n)
			if old, ok := adj[id]; !ok || c < old.cost {
				adj[id] = hop{ifName: ifName, addr: n.addr, cost: c}
			}
		}
	}

	// Networks we are attached to ourselves are served by connected
	// routes; never shadow them.
	attached := make(map[Network]bool)
	for _, ifName := range r.ifNames() {
		if addr, mask, ok := r.stack.IfAddr(ifName); ok {
			attached[Network{Prefix: mask.Apply(addr), Mask: mask}] = true
			attached[Network{Prefix: addr, Mask: ip.MaskHost}] = true
		}
	}

	type cand struct {
		dist  uint32
		entry *route.Entry
	}
	best := make(map[Network]cand)
	for _, id := range r.db.IDs() {
		if id == r.id {
			continue
		}
		p, reachable := paths[id]
		if !reachable {
			continue
		}
		via, ok := adj[p.FirstHop]
		if !ok {
			continue
		}
		lsa, _ := r.db.Get(id)
		for _, net := range lsa.Networks {
			key := Network{Prefix: net.Prefix, Mask: net.Mask}
			if attached[key] {
				continue
			}
			if net.Mask == ip.MaskHost && net.Prefix == via.addr {
				continue // "X via X": the connected route already wins
			}
			total := p.Dist + uint32(net.Cost)
			if old, ok := best[key]; ok && old.dist <= total {
				continue
			}
			flags := route.FlagGateway
			if net.Mask == ip.MaskHost {
				flags |= route.FlagHost
			}
			best[key] = cand{dist: total, entry: &route.Entry{
				Dest: net.Prefix, Mask: net.Mask, Gateway: via.addr,
				IfName: via.ifName, Flags: flags, Metric: total,
			}}
		}
	}

	entries := make([]*route.Entry, 0, len(best))
	for _, c := range best {
		entries = append(entries, c.entry)
	}
	sort.Slice(entries, func(i, j int) bool {
		bi, bj := entries[i].Mask.Bits(), entries[j].Mask.Bits()
		if bi != bj {
			return bi > bj
		}
		return entries[i].Dest.Uint32() < entries[j].Dest.Uint32()
	})
	r.Stats.RoutesInstalled = r.stack.Routes.ReplaceOwned(DefaultOwner, entries)
}
