package experiments

import (
	"fmt"
	"io"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/rspf"
	"packetradio/internal/sim"
	"packetradio/internal/world"
)

// The RSPF experiments (E11–E13) quantify the step past the paper:
// §4.2 ends with all AMPRnet traffic forced through one static
// gateway, and these runs measure what a link-state routing daemon
// buys over that arrangement — failover, and what it costs on a 1200
// bps channel that can barely afford its own control traffic.

// e11HelloInterval is the (aggressive) hello period used by the
// failover experiments so reconvergence fits in minutes of simulated
// time; a neighbor is declared dead after 4× this.
const e11HelloInterval = 10 * time.Second

func e11Config() rspf.Config {
	return rspf.Config{HelloInterval: e11HelloInterval, RefreshInterval: 2 * time.Minute}
}

// prober sends one echo every period and records which probes get
// replies, against virtual send time.
type prober struct {
	w      *world.World
	sent   map[uint16]sim.Time
	got    map[uint16]bool
	ticker *sim.Ticker
}

func startProber(w *world.World, from *world.Host, dst ip.Addr, period time.Duration) *prober {
	p := &prober{w: w, sent: make(map[uint16]sim.Time), got: make(map[uint16]bool)}
	id, _ := from.Stack.PingOpen(dst, 56, func(seq uint16, _ time.Duration, _ ip.Addr) {
		p.got[seq] = true
	})
	p.sent[0] = w.Sched.Now()
	seq := uint16(0)
	p.ticker = w.Sched.Every(period, func() {
		seq++
		p.sent[seq] = w.Sched.Now()
		from.Stack.PingSeq(dst, id, seq, 56)
	})
	return p
}

func (p *prober) stop() { p.ticker.Stop() }

// deliveredSince counts probes sent at or after t that were answered,
// and the total sent in that window.
func (p *prober) deliveredSince(t sim.Time) (got, sent int) {
	for seq, at := range p.sent {
		if at < t {
			continue
		}
		sent++
		if p.got[seq] {
			got++
		}
	}
	return got, sent
}

// firstSuccessAfter reports the send time of the earliest answered
// probe sent at or after t.
func (p *prober) firstSuccessAfter(t sim.Time) (sim.Time, bool) {
	var best sim.Time
	found := false
	for seq, at := range p.sent {
		if at < t || !p.got[seq] {
			continue
		}
		if !found || at < best {
			best = at
			found = true
		}
	}
	return best, found
}

// e11Run executes one failover scenario: a PC probes the Internet host
// across the gateway; at failAt the primary gateway drops off every
// medium. With dynamic=false the era's static routes are used; with
// dynamic=true every host runs RSPF.
func e11Run(dynamic bool, failAt, total time.Duration) (*prober, sim.Time) {
	s := world.NewSeattle(world.SeattleConfig{
		Seed: 1101, NumPCs: 1, SecondGateway: true, NoStaticRoutes: dynamic,
	})
	if dynamic {
		s.EnableRSPF(e11Config())
		// Let the daemons converge before probing starts.
		s.W.Run(3 * time.Minute)
	}
	p := startProber(s.W, s.PCs[0], world.InternetIP, 15*time.Second)
	s.W.Run(failAt)
	failTime := s.W.Sched.Now()
	for _, other := range []string{"uw-gw2", "june", "pc1"} {
		s.W.FailLink("uw-gw", other)
	}
	s.W.Run(total - failAt)
	p.stop()
	return p, failTime
}

// E11 measures reconvergence after the primary gateway fails. The
// static-route control blackholes: its one gateway address is wired
// into every host. RSPF shifts traffic to the second gateway within a
// bounded number of simulated seconds (neighbor death detection plus
// flood and SPF), and the run is bit-for-bit reproducible by seed.
func E11(w io.Writer) *Result {
	r := newResult("E11")
	t := newTable(w, "E11", "primary gateway fails at T+10min; pc1 probes june every 15 s")
	t.row("routing", "delivered after failure", "first success after", "convergence(s)")

	const failAt, total = 10 * time.Minute, 25 * time.Minute

	ps, failT := e11Run(false, failAt, total)
	gotS, sentS := ps.deliveredSince(failT)
	t.row("static", fmtFrac(gotS, sentS), "never", "-")
	r.set("static_delivered_after_fail", float64(gotS))
	r.set("static_sent_after_fail", float64(sentS))

	pd, failT := e11Run(true, failAt, total)
	gotD, sentD := pd.deliveredSince(failT)
	first, ok := pd.firstSuccessAfter(failT)
	conv := -1.0
	firstStr := "never"
	if ok {
		conv = first.Sub(failT).Seconds()
		firstStr = sec(first.Sub(failT)) + "s"
	}
	t.row("rspf", fmtFrac(gotD, sentD), firstStr, fmt.Sprintf("%.1f", conv))
	r.set("rspf_delivered_after_fail", float64(gotD))
	r.set("rspf_sent_after_fail", float64(sentD))
	r.set("rspf_convergence_s", conv)

	t.flush()
	return r
}

func fmtFrac(got, sent int) string { return fmt.Sprintf("%d/%d", got, sent) }

// E12 prices the routing protocol itself on the 1200 bps channel: the
// airtime its hellos and floods consume with no user traffic at all,
// for aggressive versus production timers. This is the §3 lesson
// ("transmission time is the dominant factor") applied to RSPF's own
// control plane — the reason the daemon's defaults are so slow.
func E12(w io.Writer) *Result {
	r := newResult("E12")
	t := newTable(w, "E12", "4 radio stations, 30 min, no user traffic")
	t.row("timers", "frames", "airtime(s)", "channel util %")

	run := func(label string, cfg rspf.Config) float64 {
		s := world.NewSeattle(world.SeattleConfig{
			Seed: 1201, NumPCs: 2, SecondGateway: true, NoStaticRoutes: true,
		})
		s.EnableRSPF(cfg)
		s.W.Run(30 * time.Minute)
		util := s.Channel.Utilization() * 100
		t.row(label, s.Channel.Stats.FramesStarted, sec(s.Channel.Stats.Airtime), fmt.Sprintf("%.1f", util))
		return util
	}
	fast := run("hello=10s", e11Config())
	slow := run("hello=60s", rspf.Config{HelloInterval: time.Minute, RefreshInterval: 15 * time.Minute})
	r.set("util_pct_hello10", fast)
	r.set("util_pct_hello60", slow)

	t.flush()
	return r
}

// E13 runs link churn — the gateways' RF paths fading out and back —
// and compares delivery ratios. Static routing delivers only while its
// single wired-in gateway happens to be up; RSPF routes around each
// outage after its detection lag.
func E13(w io.Writer) *Result {
	r := newResult("E13")
	t := newTable(w, "E13", "gateway RF outages on a fixed schedule; pc1 probes june every 20 s for 40 min")
	t.row("routing", "delivered", "ratio")

	// The churn schedule is shared by both runs: alternating outages
	// of the two gateways' radio sides, with a window where both are
	// briefly down.
	type churn struct {
		at   time.Duration
		gw   string
		fail bool
	}
	schedule := []churn{
		{6 * time.Minute, "uw-gw", true},
		{14 * time.Minute, "uw-gw", false},
		{18 * time.Minute, "uw-gw2", true},
		{26 * time.Minute, "uw-gw2", false},
		{30 * time.Minute, "uw-gw", true},
		{36 * time.Minute, "uw-gw", false},
	}

	run := func(dynamic bool) (int, int) {
		s := world.NewSeattle(world.SeattleConfig{
			Seed: 1301, NumPCs: 1, SecondGateway: true, NoStaticRoutes: dynamic,
		})
		if dynamic {
			s.EnableRSPF(e11Config())
			s.W.Run(3 * time.Minute)
		}
		for _, c := range schedule {
			c := c
			s.W.Sched.At(s.W.Sched.Now().Add(c.at), func() {
				if c.fail {
					s.W.FailLink(c.gw, "pc1")
				} else {
					s.W.HealLink(c.gw, "pc1")
				}
			})
		}
		p := startProber(s.W, s.PCs[0], world.InternetIP, 20*time.Second)
		s.W.Run(40 * time.Minute)
		p.stop()
		return p.deliveredSince(0)
	}

	gotS, sentS := run(false)
	gotD, sentD := run(true)
	t.row("static", fmtFrac(gotS, sentS), pct(gotS, sentS))
	t.row("rspf", fmtFrac(gotD, sentD), pct(gotD, sentD))
	r.set("static_ratio", ratio(gotS, sentS))
	r.set("rspf_ratio", ratio(gotD, sentD))

	t.flush()
	return r
}

func ratio(got, sent int) float64 {
	if sent == 0 {
		return 0
	}
	return float64(got) / float64(sent)
}

func pct(got, sent int) string {
	return fmt.Sprintf("%.0f%%", 100*ratio(got, sent))
}
