package world

import (
	"testing"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/route"
	"packetradio/internal/rspf"
	"packetradio/internal/sim"
)

// fastRSPF keeps simulated convergence times short in tests.
func fastRSPF() rspf.Config {
	return rspf.Config{
		HelloInterval:   10 * time.Second,
		RefreshInterval: 2 * time.Minute,
	}
}

// pingOK retries an echo every 20 simulated seconds until one reply
// arrives or the deadline passes — a lost frame on the collision-prone
// channel must not masquerade as a routing failure.
func pingOK(w *World, from *Host, dst ip.Addr, deadline time.Duration) bool {
	ok := false
	id, _ := from.Stack.PingOpen(dst, 56, func(uint16, time.Duration, ip.Addr) { ok = true })
	defer from.Stack.ClosePing(id)
	seq := uint16(0)
	tick := w.Sched.Every(20*time.Second, func() {
		seq++
		from.Stack.PingSeq(dst, id, seq, 56)
	})
	defer tick.Stop()
	w.Sched.RunUntilDone(w.Sched.Now().Add(deadline), func() bool { return ok })
	return ok
}

func TestRSPFLearnsEthernetSideRoutes(t *testing.T) {
	s := NewSeattle(SeattleConfig{Seed: 42, NumPCs: 2, SecondGateway: true, NoStaticRoutes: true})
	s.EnableRSPF(fastRSPF())

	// Before convergence the PC has no route off net 44.
	if _, err := s.PCs[0].Stack.Routes.Lookup(InternetIP); err == nil {
		t.Fatal("route to 128.95 existed before convergence")
	}
	s.W.Run(3 * time.Minute)

	e, err := s.PCs[0].Stack.Routes.Lookup(InternetIP)
	if err != nil {
		t.Fatalf("no route to june after convergence: %v\n%s", err, s.PCs[0].Stack.Routes)
	}
	if e.Flags&route.FlagDynamic == 0 || e.Owner != rspf.DefaultOwner {
		t.Fatalf("route not daemon-installed: %v", e)
	}
	// Equal-cost gateways tie-break to the lower router ID — the
	// primary at 128.95.1.1 — deterministically.
	if e.Gateway != GatewayIP {
		t.Fatalf("next hop %v, want primary gateway %v", e.Gateway, GatewayIP)
	}
	if !pingOK(s.W, s.PCs[0], InternetIP, 5*time.Minute) {
		t.Fatal("ping across the gateway failed on RSPF routes")
	}
	// june must have learned the PC's /32 stub for the return path.
	re, err := s.Internet.Stack.Routes.Lookup(PCIP(0))
	if err != nil || re.Mask != ip.MaskHost {
		t.Fatalf("june's route to pc1: %v, %v", re, err)
	}
}

func TestRSPFFailsOverToSecondGateway(t *testing.T) {
	s := NewSeattle(SeattleConfig{Seed: 7, NumPCs: 1, SecondGateway: true, NoStaticRoutes: true})
	s.EnableRSPF(fastRSPF())
	s.W.Run(3 * time.Minute)

	if e, err := s.PCs[0].Stack.Routes.Lookup(InternetIP); err != nil || e.Gateway != GatewayIP {
		t.Fatalf("precondition: route via primary, got %v, %v", e, err)
	}

	// The primary gateway dies: sever it from every other host.
	for _, other := range []string{"uw-gw2", "june", "pc1"} {
		s.W.FailLink("uw-gw", other)
	}
	s.W.Run(3 * time.Minute)

	e, err := s.PCs[0].Stack.Routes.Lookup(InternetIP)
	if err != nil {
		t.Fatalf("no route after failover: %v\n%s", err, s.PCs[0].Stack.Routes)
	}
	if e.Gateway != Gateway2IP {
		t.Fatalf("next hop %v, want second gateway %v", e.Gateway, Gateway2IP)
	}
	if !pingOK(s.W, s.PCs[0], InternetIP, 5*time.Minute) {
		t.Fatal("ping via second gateway failed")
	}
}

func TestRSPFMultiHopRadioChain(t *testing.T) {
	// a - b - c on one channel, a and c hidden from each other: RSPF
	// must install a host route to c via b, and b must forward.
	w := New(3)
	ch := w.Channel("145.01", 0)
	addrs := []string{"44.24.0.1", "44.24.0.2", "44.24.0.3"}
	var hosts []*Host
	for i, a := range addrs {
		h := w.Host(string(rune('a' + i)))
		h.AttachRadio(ch, "pr0", PCCall(i), ip.MustAddr(a), ip.MaskClassA, RadioConfig{})
		h.EnableForwarding()
		hosts = append(hosts, h)
	}
	w.FailLink("a", "c")
	for _, h := range hosts {
		h.EnableRSPF(fastRSPF())
	}
	w.Run(4 * time.Minute)

	e, err := hosts[0].Stack.Routes.Lookup(ip.MustAddr("44.24.0.3"))
	if err != nil {
		t.Fatalf("no route a->c: %v\n%s", err, hosts[0].Stack.Routes)
	}
	if e.Mask != ip.MaskHost || e.Gateway != ip.MustAddr("44.24.0.2") {
		t.Fatalf("route a->c = %v, want /32 via b", e)
	}
	if !pingOK(w, hosts[0], ip.MustAddr("44.24.0.3"), 5*time.Minute) {
		t.Fatal("multi-hop ping failed")
	}
}

func TestMoveHostRelearnsStub(t *testing.T) {
	// Two radio channels bridged by an Ethernet: gw1 serves ch1, gw2
	// serves ch2. A portable PC starts on ch1; after moving to ch2
	// the Ethernet host must re-learn its /32 through gw2.
	w := New(11)
	ch1 := w.Channel("145.01", 0)
	ch2 := w.Channel("145.03", 0)
	eth := w.Ethernet("backbone")

	gw1 := w.Host("gw1")
	gw1.AttachEther(eth, "qe0", ip.MustAddr("128.95.1.1"), ip.MaskClassB)
	gw1.AttachRadio(ch1, "pr0", "GW1", ip.MustAddr("44.24.1.1"), ip.MaskClassA, RadioConfig{})
	gw1.MakeGateway("pr0", "qe0", false)

	gw2 := w.Host("gw2")
	gw2.AttachEther(eth, "qe0", ip.MustAddr("128.95.1.2"), ip.MaskClassB)
	gw2.AttachRadio(ch2, "pr0", "GW2", ip.MustAddr("44.24.2.1"), ip.MaskClassA, RadioConfig{})
	gw2.MakeGateway("pr0", "qe0", false)

	inet := w.Host("june")
	inet.AttachEther(eth, "qe0", ip.MustAddr("128.95.1.3"), ip.MaskClassB)

	pc := w.Host("pc")
	pc.AttachRadio(ch1, "pr0", "PORT", ip.MustAddr("44.24.0.99"), ip.MaskClassA, RadioConfig{})

	for _, h := range []*Host{gw1, gw2, inet, pc} {
		h.EnableRSPF(fastRSPF())
	}
	w.Run(3 * time.Minute)

	pcAddr := ip.MustAddr("44.24.0.99")
	e, err := inet.Stack.Routes.Lookup(pcAddr)
	if err != nil || e.Gateway != ip.MustAddr("128.95.1.1") {
		t.Fatalf("before move: %v, %v", e, err)
	}

	w.MoveHost("pc", "pr0", ch2)
	w.Run(4 * time.Minute)

	e, err = inet.Stack.Routes.Lookup(pcAddr)
	if err != nil {
		t.Fatalf("no route after move: %v\n%s", err, inet.Stack.Routes)
	}
	if e.Gateway != ip.MustAddr("128.95.1.2") {
		t.Fatalf("after move via %v, want gw2", e.Gateway)
	}
	if !pingOK(w, inet, pcAddr, 5*time.Minute) {
		t.Fatal("ping to moved host failed")
	}
}

func TestFailAndHealLinkRestoresConnectivity(t *testing.T) {
	s := NewSeattle(SeattleConfig{Seed: 5, NumPCs: 1})
	if !pingOK(s.W, s.PCs[0], InternetIP, 2*time.Minute) {
		t.Fatal("baseline ping failed")
	}
	s.W.FailLink("pc1", "uw-gw")
	if pingOK(s.W, s.PCs[0], InternetIP, 2*time.Minute) {
		t.Fatal("ping succeeded across a failed link")
	}
	s.W.HealLink("pc1", "uw-gw")
	if !pingOK(s.W, s.PCs[0], InternetIP, 2*time.Minute) {
		t.Fatal("ping failed after heal")
	}
}

func TestRSPFDeterministicConvergence(t *testing.T) {
	// Two identical seeded runs must converge to byte-identical
	// routing tables and event counts.
	run := func() (string, uint64) {
		s := NewSeattle(SeattleConfig{Seed: 99, NumPCs: 2, SecondGateway: true, NoStaticRoutes: true})
		s.EnableRSPF(fastRSPF())
		s.W.Run(5 * time.Minute)
		out := ""
		for _, h := range append([]*Host{s.Gateway, s.Gateway2, s.Internet}, s.PCs...) {
			out += h.Name + "\n" + h.Stack.Routes.String()
		}
		return out, s.W.Sched.Fired()
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Fatalf("nondeterministic convergence: fired %d vs %d\n--- run 1:\n%s\n--- run 2:\n%s", f1, f2, t1, t2)
	}
	var zero sim.Time
	_ = zero
}

func TestRSPFRestartRecoversSequence(t *testing.T) {
	// A restarted daemon re-announces from seq 1 while peers hold its
	// old high-seq LSA. Peers must flood their stored copy back so it
	// jumps past its old sequence instead of being ignored until it
	// ages out.
	s := NewSeattle(SeattleConfig{Seed: 21, NumPCs: 1, SecondGateway: true, NoStaticRoutes: true})
	s.EnableRSPF(fastRSPF())
	s.W.Run(3 * time.Minute)

	pc := s.PCs[0]
	oldLSA, ok := s.Gateway.RSPF().Database().Get(pc.RSPF().ID())
	if !ok || oldLSA.Seq < 2 {
		t.Fatalf("precondition: gateway lacks pc1's LSA (%v)", oldLSA)
	}
	pc.RSPF().Stop()
	// A fresh daemon on the same stack — seq restarts at 1.
	r2 := rspf.New(pc.Stack, fastRSPF())
	r2.SetBitRate("pr0", pc.Radio("pr0").RF.Channel().BitRate)
	r2.Start()
	s.W.Run(3 * time.Minute)

	got, ok := s.Gateway.RSPF().Database().Get(r2.ID())
	if !ok {
		t.Fatal("gateway lost pc1's LSA entirely")
	}
	if got.Seq <= oldLSA.Seq {
		t.Fatalf("gateway still holds stale seq %d (pre-restart seq %d): restarted router never recovered", got.Seq, oldLSA.Seq)
	}
	if len(got.Links) == 0 {
		t.Fatal("recovered LSA has no links")
	}
}

func TestRSPFFirstHopUsesCheapestSharedLink(t *testing.T) {
	// Two routers dual-homed on both a radio channel and an Ethernet,
	// with the RADIO attached first: the installed routes must use
	// the Ethernet adjacency — the link whose (cheaper) cost the LSAs
	// advertise — not the first interface in attachment order.
	w := New(31)
	ch := w.Channel("145.01", 0)
	eth := w.Ethernet("lab")

	r1 := w.Host("r1")
	r1.AttachRadio(ch, "pr0", "RRA", ip.MustAddr("44.24.0.1"), ip.MaskClassA, RadioConfig{})
	r1.AttachEther(eth, "qe0", ip.MustAddr("128.95.1.1"), ip.MaskClassB)
	r2 := w.Host("r2")
	r2.AttachRadio(ch, "pr0", "RRB", ip.MustAddr("44.24.0.2"), ip.MaskClassA, RadioConfig{})
	r2.AttachEther(eth, "qe0", ip.MustAddr("128.95.1.2"), ip.MaskClassB)
	for _, h := range []*Host{r1, r2} {
		h.EnableForwarding()
		h.EnableRSPF(fastRSPF())
	}
	w.Run(3 * time.Minute)

	// r1's route to r2's radio-side /32 stub must leave via Ethernet.
	e, err := r1.Stack.Routes.Lookup(ip.MustAddr("44.24.0.2"))
	if err != nil {
		t.Fatalf("no route: %v\n%s", err, r1.Stack.Routes)
	}
	if e.Flags&route.FlagDynamic == 0 {
		t.Skipf("lookup hit connected route, not the daemon's: %v", e)
	}
	if e.IfName != "qe0" {
		t.Fatalf("route %v leaves via %s, want the Ethernet the metric was priced on", e, e.IfName)
	}
}
