// Compiling a validated scenario into a runnable world. Every world a
// scenario builds runs on the single-loop engine, so everything
// Compile schedules (probes, pair flows, link churn) lands on the
// world's one scheduler, W.Sched.

package scenario

import (
	"fmt"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/obs"
	"packetradio/internal/radio"
	"packetradio/internal/world"
)

// Runner is one compiled (scenario, seed) instance, ready to Run
// once. The exported fields let callers attach observability
// before running.
type Runner struct {
	Scenario *Scenario
	Seed     int64

	W        *world.World
	Large    *world.Large     // nil on the seattle base
	Seattle  *world.Seattle   // nil on the large base
	Channels []*radio.Channel // channel c at index c

	// Internet is the Ethernet host baseline probes target (inet or
	// june).
	Internet *world.Host

	// Tracer is the packet-journey tracer, attached by Compile when the
	// scenario declares span_latency gates (callers may also attach one
	// themselves via W.AttachTracer before running).
	Tracer *obs.Tracer

	probers []func() // baseline per-station probe, large or seattle
	ran     bool

	// pairs accounts the pair flows and the seattle baseline probes.
	pairs world.ProbeTally
}

// Compile builds the scenario's world for one seed. The scenario must
// be normalized and valid (Load and Parse guarantee both).
func Compile(sc *Scenario, seed int64) (*Runner, error) {
	r := &Runner{Scenario: sc, Seed: seed}
	t := &sc.Topology
	if t.Base == "seattle" {
		mac, _ := world.ParseMACMode(t.MAC)
		se := world.NewSeattle(world.SeattleConfig{
			Seed:          seed,
			NumPCs:        t.Stations,
			BitRate:       t.BitRate,
			Baud:          t.Baud,
			MAC:           mac,
			SecondGateway: t.SecondGateway,
		})
		r.W, r.Seattle = se.W, se
		r.Channels = []*radio.Channel{se.Channel}
		r.Internet = se.Internet
	} else {
		mac, _ := world.ParseMACMode(t.MAC)
		transport, _ := world.ParseTransportMode(sc.Traffic.Transport)
		lw := world.NewLarge(world.LargeConfig{
			Seed:      seed,
			Stations:  t.Stations,
			Channels:  t.Channels,
			BitRate:   t.BitRate,
			Baud:      t.Baud,
			MAC:       mac,
			Transport: transport,
			NoAutoARP: t.NoAutoARP,
			// PingInterval stays 0: the scenario owns the schedule and
			// drives lw.Probe itself.
		})
		r.W, r.Large = lw.W, lw
		r.Channels = lw.Channels
		r.Internet = lw.Internet
	}
	r.armBaseline()
	r.scheduleTraffic()
	r.applyGeometry()
	if err := r.scheduleFailures(); err != nil {
		return nil, err
	}
	r.registerRollups()
	if sc.Gates != nil && len(sc.Gates.SpanLatency) > 0 {
		r.Tracer = r.W.AttachTracer()
	}
	return r, nil
}

// registerRollups registers the scenario.* roll-ups in the world's
// metric registry. The values add the live pair-flow counters to the
// large world's live probe counts, so a mid-run sample is current.
func (r *Runner) registerRollups() {
	reg := r.W.Registry()
	sent := func() uint64 {
		n := r.pairs.Sent
		if r.Large != nil {
			n += r.Large.Sent
		}
		return n
	}
	replies := func() uint64 {
		n := r.pairs.Replies
		if r.Large != nil {
			n += r.Large.Replies
		}
		return n
	}
	reg.RegisterFunc("scenario.sent", func() float64 { return float64(sent()) })
	reg.RegisterFunc("scenario.replies", func() float64 { return float64(replies()) })
	reg.RegisterFunc("scenario.delivery", func() float64 {
		if s := sent(); s > 0 {
			return float64(replies()) / float64(s)
		}
		return 0
	})
}

// stations reports the baseline station count.
func (r *Runner) stations() int { return r.Scenario.Topology.Stations }

// armBaseline builds r.probers: on the large base the world's own
// transport probers (ICMP/TCP/RDM); on seattle, per-PC persistent echo
// contexts to june, accounted with the pair flows.
func (r *Runner) armBaseline() {
	n := r.stations()
	r.probers = make([]func(), n)
	if lw := r.Large; lw != nil {
		lw.ArmProbers()
		for i := 0; i < n; i++ {
			i := i
			r.probers[i] = func() { lw.Probe(i) }
		}
		return
	}
	for i, pc := range r.Seattle.PCs {
		r.probers[i] = world.NewEchoProber(pc, world.InternetIP, 32, &r.pairs).Send
	}
}

// scheduleTraffic arms the baseline probe matrix (shaped by the
// diurnal curve), the flash crowds and the pair flows. All times are
// absolute virtual time from the start of the run.
func (r *Runner) scheduleTraffic() {
	sc := r.Scenario
	tr := &sc.Traffic
	n := r.stations()
	sched := r.W.Sched

	if base := tr.ProbeInterval.D(); base > 0 {
		rateAt := r.diurnalRate()
		for i := 0; i < n; i++ {
			probe := r.probers[i]
			phase := time.Duration(int64(base) * int64(i) / int64(n))
			var tick func()
			tick = func() {
				probe()
				sched.After(time.Duration(float64(base)/rateAt(sched.Now().Duration())), tick)
			}
			sched.After(phase, tick)
		}
	}

	for _, f := range tr.FlashCrowds {
		for k := 0; k < f.Stations; k++ {
			i := f.First + k
			probe := r.probers[i]
			start := f.At.D() + time.Duration(k)*f.Stagger.D()
			for j := 0; j < f.Probes; j++ {
				sched.After(start+time.Duration(j)*f.Spacing.D(), probe)
			}
		}
	}

	if len(tr.Pairs) > 0 {
		end := sc.End()
		for _, pf := range tr.Pairs {
			p := world.NewEchoProber(r.W.Host(pf.From), r.hostIP(pf.To), pf.Size, &r.pairs)
			interval, stop := pf.Interval.D(), pf.Stop.D()
			if stop == 0 {
				stop = end
			}
			var tick func()
			tick = func() {
				if sched.Now().Duration() >= stop {
					return
				}
				p.Send()
				sched.After(interval, tick)
			}
			sched.After(pf.Start.D(), tick)
		}
	}
}

// diurnalRate returns the piecewise-constant rate multiplier in
// effect at a given virtual time (1 before the first breakpoint).
func (r *Runner) diurnalRate() func(time.Duration) float64 {
	points := r.Scenario.Traffic.Diurnal
	return func(at time.Duration) float64 {
		rate := 1.0
		for _, p := range points {
			if at < p.At.D() {
				break
			}
			rate = p.Rate
		}
		return rate
	}
}

// applyGeometry severs the topology's initial cuts. Compile runs
// before the first event, so this mutates reachability directly.
func (r *Runner) applyGeometry() {
	for _, cut := range r.Scenario.Topology.Cuts {
		r.W.FailLink(cut.A, cut.B)
	}
}

// scheduleFailures turns the failure schedule into events.
func (r *Runner) scheduleFailures() error {
	sched := r.W.Sched
	for _, f := range r.Scenario.Failures {
		switch f.Kind {
		case "flap":
			a, b := f.A, f.B
			until := f.Until.D()
			for t := f.From.D(); t < until; t += f.DownFor.D() + f.UpFor.D() {
				heal := t + f.DownFor.D()
				if heal > until {
					heal = until
				}
				sched.After(t, func() { r.W.FailLink(a, b) })
				sched.After(heal, func() { r.W.HealLink(a, b) })
			}
		case "partition":
			links := r.gatewayLinks(f.Channel - 1)
			sched.After(f.From.D(), func() {
				for _, l := range links {
					r.W.FailLink(l.A, l.B)
				}
			})
			sched.After(f.Until.D(), func() {
				for _, l := range links {
					r.W.HealLink(l.A, l.B)
				}
			})
		case "master_churn":
			ch := r.Channels[f.Channel-1]
			ctl := r.W.DAMA(ch)
			downFor := f.DownFor.D()
			for t := f.From.D(); t+downFor <= f.Until.D(); t += f.Every.D() {
				sched.After(t, func() {
					m := ctl.Master()
					if m == nil {
						return // mid-election already
					}
					var cut []*radio.Transceiver
					for _, s := range ch.Stations() {
						if s != m {
							ch.SetReachable(m, s, false)
							ch.SetReachable(s, m, false)
							cut = append(cut, s)
						}
					}
					sched.After(downFor, func() {
						for _, s := range cut {
							ch.SetReachable(m, s, true)
							ch.SetReachable(s, m, true)
						}
					})
				})
			}
		default:
			return fmt.Errorf("scenario %s: unreachable failure kind %q", r.Scenario.Name, f.Kind)
		}
	}
	return nil
}

// gatewayLinks lists the (gateway, station) host-name pairs on channel
// c — what a partition severs.
func (r *Runner) gatewayLinks(c int) []Link {
	var links []Link
	if se := r.Seattle; se != nil {
		gws := []string{"uw-gw"}
		if se.Gateway2 != nil {
			gws = append(gws, "uw-gw2")
		}
		for _, gw := range gws {
			for i := range se.PCs {
				links = append(links, Link{A: gw, B: fmt.Sprintf("pc%d", i+1)})
			}
		}
		return links
	}
	gw := fmt.Sprintf("gw%d", c+1)
	for i := 0; i < r.Scenario.Topology.Stations; i++ {
		if i%r.Scenario.Topology.Channels == c {
			links = append(links, Link{A: gw, B: fmt.Sprintf("st%d", i)})
		}
	}
	return links
}

// hostIP resolves a validated host name to the address pair flows
// target (gateways by their radio-side address).
func (r *Runner) hostIP(name string) ip.Addr {
	sc := r.Scenario
	if sc.Topology.Base == "seattle" {
		switch name {
		case "uw-gw":
			return world.GatewayIP
		case "uw-gw2":
			return world.Gateway2IP
		case "june":
			return world.InternetIP
		}
		i, _ := sc.stationIndex(name)
		return world.PCIP(i)
	}
	if name == "inet" {
		return world.LargeInternetIP
	}
	if i, ok := sc.stationIndex(name); ok {
		return r.Large.Cfg.LargeStationIP(i)
	}
	ref, _ := sc.resolveHost(name) // "gw<c>"
	return world.LargeGatewayRadioIP(ref.channel)
}
