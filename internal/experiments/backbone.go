package experiments

import (
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/ip"
	"packetradio/internal/netrom"
	"packetradio/internal/world"
)

// backboneWorld is the two-coast topology used by E4 and E8: an
// Internet Ethernet with a gateway per coast, a radio subnet per coast
// (44.24/16 west, 44.56/16 east), and a 1200 bps NET/ROM backbone
// joining the gateways — §2.4's "existing, and growing, point-to-point
// backbone".
type backboneWorld struct {
	w *world.World

	inet           *world.Host
	westGW, eastGW *world.Host
	westPC, eastPC *world.Host

	westGWEther, eastGWEther ip.Addr
	westPCIP, eastPCIP       ip.Addr

	westNode, midNode, eastNode *netrom.Node
	convergence                 time.Duration
}

func newBackboneWorld(seed int64) *backboneWorld { return newBackboneWorldOpt(seed, false) }

func newBackboneWorldOpt(seed int64, withMid bool) *backboneWorld {
	bw := &backboneWorld{w: world.New(seed)}
	w := bw.w
	eth := w.Ethernet("internet")
	westCh := w.Channel("west-145.01", 0)
	eastCh := w.Channel("east-145.01", 0)
	bbCh := w.Channel("backbone-223.60", 0)

	bw.westGWEther = ip.MustAddr("128.95.1.1")
	bw.eastGWEther = ip.MustAddr("128.95.1.3")
	bw.westPCIP = ip.MustAddr("44.24.0.10")
	bw.eastPCIP = ip.MustAddr("44.56.0.10")

	bw.inet = w.Host("inet")
	bw.inet.AttachEther(eth, "qe0", ip.MustAddr("128.95.1.2"), ip.MaskClassB)

	bw.westGW = w.Host("west-gw")
	bw.westGW.AttachEther(eth, "qe0", bw.westGWEther, ip.MaskClassB)
	bw.westGW.AttachRadio(westCh, "pr0", "WGW", ip.MustAddr("44.24.0.28"), ip.MaskClassB, world.RadioConfig{})
	bw.westGW.EnableForwarding()

	bw.eastGW = w.Host("east-gw")
	bw.eastGW.AttachEther(eth, "qe0", bw.eastGWEther, ip.MaskClassB)
	bw.eastGW.AttachRadio(eastCh, "pr0", "EGW", ip.MustAddr("44.56.0.28"), ip.MaskClassB, world.RadioConfig{})
	bw.eastGW.EnableForwarding()

	bw.westPC = w.Host("west-pc")
	bw.westPC.AttachRadio(westCh, "pr0", "WPC", bw.westPCIP, ip.MaskClassB, world.RadioConfig{})
	bw.westPC.Stack.Routes.AddDefault(ip.MustAddr("44.24.0.28"), "pr0")

	bw.eastPC = w.Host("east-pc")
	bw.eastPC.AttachRadio(eastCh, "pr0", "EPC", bw.eastPCIP, ip.MaskClassB, world.RadioConfig{})
	bw.eastPC.Stack.Routes.AddDefault(ip.MustAddr("44.56.0.28"), "pr0")

	// NET/ROM backbone nodes at the gateways (with an optional relay
	// in the middle, making the backbone multi-hop).
	bw.westNode = netrom.NewNode(w.Sched, bbCh, "SEA", "SEA")
	bw.eastNode = netrom.NewNode(w.Sched, bbCh, "TAC", "TAC")
	nodes := []*netrom.Node{bw.westNode, bw.eastNode}
	if withMid {
		bw.midNode = netrom.NewNode(w.Sched, bbCh, "MID", "MID")
		nodes = append(nodes, bw.midNode)
		// Line topology: SEA - MID - TAC.
		bbCh.SetReachable(bw.westNode.RF(), bw.eastNode.RF(), false)
		bbCh.SetReachable(bw.eastNode.RF(), bw.westNode.RF(), false)
	}
	for _, n := range nodes {
		n.Start()
	}

	// IP tunnels over the backbone.
	westTun := netrom.NewIPTunnel(bw.westNode, "nr0", bw.westGW.Stack)
	westTun.Init()
	bw.westGW.Stack.AddInterface(westTun, ip.MustAddr("44.0.0.1"), ip.MaskClassC)
	westTun.AddPeer(ip.MustAddr("44.0.0.2"), ax25.MustAddr("TAC"))
	bw.westGW.Stack.Routes.AddNet(ip.MustAddr("44.56.0.0"), ip.MaskClassB, ip.MustAddr("44.0.0.2"), "nr0")

	eastTun := netrom.NewIPTunnel(bw.eastNode, "nr0", bw.eastGW.Stack)
	eastTun.Init()
	bw.eastGW.Stack.AddInterface(eastTun, ip.MustAddr("44.0.0.2"), ip.MaskClassC)
	eastTun.AddPeer(ip.MustAddr("44.0.0.1"), ax25.MustAddr("SEA"))
	bw.eastGW.Stack.Routes.AddNet(ip.MustAddr("44.24.0.0"), ip.MaskClassB, ip.MustAddr("44.0.0.1"), "nr0")

	// Let NODES broadcasts converge, recording how long it takes for
	// the west node to learn the east node.
	start := w.Sched.Now()
	for i := 0; i < 40 && !bw.westNode.HasRoute(ax25.MustAddr("TAC")); i++ {
		w.Run(15 * time.Second)
	}
	bw.convergence = w.Sched.Now().Sub(start)
	w.Run(time.Minute) // settle
	return bw
}
