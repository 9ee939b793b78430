package rdm_test

import (
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/ipstack"
	"packetradio/internal/netif"
	"packetradio/internal/rdm"
	"packetradio/internal/sim"
)

// pipeIf is a point-to-point test interface with a per-packet fate
// hook, so tests and the fuzzer can impose loss, duplication and
// reordering between two real IP stacks without a radio channel.
type pipeIf struct {
	name  string
	sched *sim.Scheduler
	peer  *ipstack.Stack
	delay time.Duration
	stats netif.Stats

	// fate decides what happens to each transmitted datagram; nil
	// delivers everything after delay.
	fate func(buf []byte) pipeFate
}

type pipeFate struct {
	drop  bool
	dup   bool
	extra time.Duration // added one-way latency (reordering lever)
}

func (p *pipeIf) Name() string        { return p.name }
func (p *pipeIf) MTU() int            { return 1500 }
func (p *pipeIf) Up() bool            { return true }
func (p *pipeIf) Init() error         { return nil }
func (p *pipeIf) Stats() *netif.Stats { return &p.stats }

func (p *pipeIf) Output(pkt *ip.Packet, nextHop ip.Addr) error {
	buf, err := pkt.Marshal()
	if err != nil {
		return err
	}
	p.stats.Opackets++
	f := pipeFate{}
	if p.fate != nil {
		f = p.fate(buf)
	}
	if f.drop {
		return nil
	}
	n := 1
	if f.dup {
		n = 2
	}
	for i := 0; i < n; i++ {
		cp := append([]byte(nil), buf...)
		p.sched.After(p.delay+f.extra+time.Duration(i)*time.Millisecond, func() {
			p.peer.Input(cp, "pipe0")
		})
	}
	return nil
}

// pair is two hosts joined by pipes, each with an RDM mux.
type pair struct {
	sched  *sim.Scheduler
	a, b   *ipstack.Stack
	am, bm *rdm.Mux
	ap, bp *pipeIf // a's outbound pipe, b's outbound pipe
}

var (
	addrA = ip.MustAddr("10.0.0.1")
	addrB = ip.MustAddr("10.0.0.2")
)

// newPair wires two stacks back-to-back with the given one-way delay.
func newPair(seed int64, delay time.Duration) *pair {
	sched := sim.NewScheduler(seed)
	a := ipstack.New(sched, "a")
	b := ipstack.New(sched, "b")
	ap := &pipeIf{name: "pipe0", sched: sched, peer: b, delay: delay}
	bp := &pipeIf{name: "pipe0", sched: sched, peer: a, delay: delay}
	a.AddInterface(ap, addrA, ip.MaskClassC)
	b.AddInterface(bp, addrB, ip.MaskClassC)
	return &pair{
		sched: sched, a: a, b: b,
		am: rdm.NewMux(a), bm: rdm.NewMux(b),
		ap: ap, bp: bp,
	}
}

// run advances the pair's world.
func (p *pair) run(d time.Duration) { p.sched.RunFor(d) }
