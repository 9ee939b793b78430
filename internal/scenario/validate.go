// Validation: every rule that can be checked without building a
// world. Problems are collected, not short-circuited, so a malformed
// file reports everything wrong with it at once; each message carries
// the field path that caused it. SCENARIOS.md documents the rules in
// prose.

package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"packetradio/internal/obs"
	"packetradio/internal/world"
)

// ValidationError aggregates every rule a scenario breaks.
type ValidationError struct {
	Name     string
	Problems []string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("scenario %q: %d problem(s):\n  - %s",
		e.Name, len(e.Problems), strings.Join(e.Problems, "\n  - "))
}

// hostRef is a resolved scenario host: its canonical name and the
// 0-based radio channel it sits on (-1 for Ethernet-only hosts).
type hostRef struct {
	name    string
	channel int
}

// resolveHost maps a scenario host name onto the topology's naming
// scheme: large worlds have "st0".."stN-1" (station i on channel
// i%channels), "gw1".."gwM" and "inet"; seattle has "pc1".."pcN",
// "uw-gw", "june" and (with second_gateway) "uw-gw2".
func (sc *Scenario) resolveHost(name string) (hostRef, error) {
	t := &sc.Topology
	numeric := func(prefix string) (int, bool) {
		rest := strings.TrimPrefix(name, prefix)
		n, err := strconv.Atoi(rest)
		if err != nil || prefix+strconv.Itoa(n) != name {
			return 0, false
		}
		return n, true
	}
	if t.Base == "seattle" {
		switch name {
		case "uw-gw":
			return hostRef{name, 0}, nil
		case "uw-gw2":
			if !t.SecondGateway {
				return hostRef{}, fmt.Errorf("host %q needs topology.second_gateway", name)
			}
			return hostRef{name, 0}, nil
		case "june":
			return hostRef{name, -1}, nil
		}
		if i, ok := numeric("pc"); ok {
			if i < 1 || i > t.Stations {
				return hostRef{}, fmt.Errorf("host %q out of range (pcs are pc1..pc%d)", name, t.Stations)
			}
			return hostRef{name, 0}, nil
		}
		return hostRef{}, fmt.Errorf("unknown host %q (seattle hosts: pc1..pc%d, uw-gw, june)", name, t.Stations)
	}
	if name == "inet" {
		return hostRef{name, -1}, nil
	}
	if i, ok := numeric("st"); ok {
		if i < 0 || i >= t.Stations {
			return hostRef{}, fmt.Errorf("host %q out of range (stations are st0..st%d)", name, t.Stations-1)
		}
		return hostRef{name, i % t.Channels}, nil
	}
	if c, ok := numeric("gw"); ok {
		if c < 1 || c > t.Channels {
			return hostRef{}, fmt.Errorf("host %q out of range (gateways are gw1..gw%d)", name, t.Channels)
		}
		return hostRef{name, c - 1}, nil
	}
	return hostRef{}, fmt.Errorf("unknown host %q (large hosts: st0..st%d, gw1..gw%d, inet)",
		name, t.Stations-1, t.Channels)
}

// stationIndex maps a probe-capable host name ("st3" / "pc2") to its
// 0-based index into the runner's station list.
func (sc *Scenario) stationIndex(name string) (int, bool) {
	if sc.Topology.Base == "seattle" {
		rest := strings.TrimPrefix(name, "pc")
		if i, err := strconv.Atoi(rest); err == nil && "pc"+strconv.Itoa(i) == name {
			return i - 1, true
		}
		return 0, false
	}
	rest := strings.TrimPrefix(name, "st")
	if i, err := strconv.Atoi(rest); err == nil && "st"+strconv.Itoa(i) == name {
		return i, true
	}
	return 0, false
}

// Validate checks every static rule and returns a *ValidationError
// listing all violations, or nil. Call Normalize first (Parse and
// Load do).
func (sc *Scenario) Validate() error {
	var probs []string
	bad := func(field, format string, args ...any) {
		probs = append(probs, field+": "+fmt.Sprintf(format, args...))
	}
	t := &sc.Topology
	end := sc.End()

	if sc.Name == "" {
		bad("name", "required")
	}
	for _, r := range sc.Name {
		if r == ' ' || r == '\t' || r == '\n' {
			bad("name", "%q contains whitespace (it labels metrics and files)", sc.Name)
			break
		}
	}

	seattle := false
	switch t.Base {
	case "large":
	case "seattle":
		seattle = true
	default:
		bad("topology.base", "unknown base %q (want \"large\" or \"seattle\")", t.Base)
		return &ValidationError{Name: sc.Name, Problems: probs} // nothing below resolves
	}
	if t.Stations < 1 || t.Stations > 1000 {
		bad("topology.stations", "%d out of range 1..1000", t.Stations)
	}
	if seattle {
		if t.Channels > 1 {
			bad("topology.channels", "the seattle base has exactly one channel")
		}
		if t.NoAutoARP {
			bad("topology.no_auto_arp", "large base only (seattle already speaks strict RFC 826)")
		}
	} else {
		if t.Channels < 1 || t.Channels > 200 {
			bad("topology.channels", "%d out of range 1..200", t.Channels)
		}
		if t.SecondGateway {
			bad("topology.second_gateway", "seattle base only")
		}
	}
	if t.BitRate < 300 {
		bad("topology.bit_rate", "%d below 300 bps", t.BitRate)
	}
	if t.Baud < 300 {
		bad("topology.baud", "%d below 300", t.Baud)
	}
	if _, err := world.ParseMACMode(t.MAC); err != nil {
		bad("topology.mac", "%v", err)
	}
	for i, cut := range t.Cuts {
		field := fmt.Sprintf("topology.cuts[%d]", i)
		sc.checkRadioPair(field, cut.A, cut.B, bad)
	}

	tr := &sc.Traffic
	if _, err := world.ParseTransportMode(tr.Transport); err != nil {
		bad("traffic.transport", "%v", err)
	} else if seattle && tr.Transport != "icmp" {
		bad("traffic.transport", "%q: the seattle base carries icmp probes only", tr.Transport)
	}
	if tr.ProbeInterval == 0 {
		if len(tr.Diurnal) > 0 {
			bad("traffic.diurnal", "needs traffic.probe_interval (it shapes the baseline rate)")
		}
	}
	var prev Duration
	for i, p := range tr.Diurnal {
		field := fmt.Sprintf("traffic.diurnal[%d]", i)
		if p.Rate <= 0 {
			bad(field+".rate", "%v must be > 0", p.Rate)
		}
		if i > 0 && p.At <= prev {
			bad(field+".at", "%v not after %v (points must ascend)", p.At, prev)
		}
		prev = p.At
	}
	for i, f := range tr.FlashCrowds {
		field := fmt.Sprintf("traffic.flash_crowds[%d]", i)
		if f.First < 0 || f.Stations < 1 || f.First+f.Stations > t.Stations {
			bad(field, "stations [%d..%d) outside the topology's 0..%d", f.First, f.First+f.Stations, t.Stations-1)
		}
		if f.Probes < 1 || f.Probes > 1000 {
			bad(field+".probes", "%d out of range 1..1000", f.Probes)
		}
		if f.At.D() >= end {
			bad(field+".at", "%v is at or beyond the run end (%v)", f.At, end)
		}
	}
	for i, p := range tr.Pairs {
		field := fmt.Sprintf("traffic.pairs[%d]", i)
		if p.From == p.To {
			bad(field, "from and to are both %q", p.From)
		}
		if _, err := sc.resolveHost(p.From); err != nil {
			bad(field+".from", "%v", err)
		}
		if _, err := sc.resolveHost(p.To); err != nil {
			bad(field+".to", "%v", err)
		}
		if p.Interval == 0 {
			bad(field+".interval", "required (and > 0)")
		}
		if p.Size < 1 || p.Size > 576 {
			bad(field+".size", "%d out of range 1..576", p.Size)
		}
		if p.Start.D() >= end {
			bad(field+".start", "%v is at or beyond the run end (%v)", p.Start, end)
		}
		if p.Stop != 0 && p.Stop <= p.Start {
			bad(field+".stop", "%v not after start %v", p.Stop, p.Start)
		}
	}

	channels := t.Channels
	if seattle {
		channels = 1
	}
	for i, f := range sc.Failures {
		field := fmt.Sprintf("failures[%d]", i)
		checkWindow := func() {
			if f.Until.D() > end {
				bad(field+".until", "%v beyond the run end (%v)", f.Until, end)
			}
			if f.From >= f.Until {
				bad(field+".from", "%v not before until (%v)", f.From, f.Until)
			}
		}
		checkUnused := func(ok ...string) {
			has := map[string]bool{}
			for _, f := range ok {
				has[f] = true
			}
			if f.A != "" && !has["a"] {
				bad(field+".a", "not a %s field", f.Kind)
			}
			if f.B != "" && !has["b"] {
				bad(field+".b", "not a %s field", f.Kind)
			}
			if f.Channel != 0 && !has["channel"] {
				bad(field+".channel", "not a %s field", f.Kind)
			}
			if f.UpFor != 0 && !has["up_for"] {
				bad(field+".up_for", "not a %s field", f.Kind)
			}
			if f.Every != 0 && !has["every"] {
				bad(field+".every", "not a %s field", f.Kind)
			}
		}
		checkChannel := func() {
			if f.Channel < 1 || f.Channel > channels {
				bad(field+".channel", "%d out of range 1..%d", f.Channel, channels)
			}
		}
		switch f.Kind {
		case "flap":
			checkUnused("a", "b", "up_for")
			sc.checkRadioPair(field, f.A, f.B, bad)
			if f.DownFor == 0 {
				bad(field+".down_for", "required (and > 0)")
			}
			if f.UpFor == 0 {
				bad(field+".up_for", "required (and > 0) — the hysteresis dwell")
			}
			checkWindow()
		case "partition":
			checkUnused("channel")
			checkChannel()
			if f.DownFor != 0 {
				bad(field+".down_for", "not a partition field (the window is from..until)")
			}
			checkWindow()
		case "master_churn":
			checkUnused("channel", "every")
			checkChannel()
			if t.MAC != "dama" {
				bad(field, "master_churn needs topology.mac = \"dama\"")
			}
			if f.Every == 0 {
				bad(field+".every", "required (and > 0)")
			}
			if f.DownFor == 0 {
				bad(field+".down_for", "required (and > 0)")
			} else if f.Every != 0 && f.DownFor >= f.Every {
				bad(field+".down_for", "%v not below every (%v)", f.DownFor, f.Every)
			}
			checkWindow()
		default:
			bad(field+".kind", "unknown kind %q (want flap, partition or master_churn)", f.Kind)
		}
	}

	if sc.Run.Duration == 0 {
		bad("run.duration", "required (and > 0)")
	}

	if g := sc.Gates; g != nil {
		if g.Seeds < 1 || g.Seeds > 1024 {
			bad("gates.seeds", "%d out of range 1..1024", g.Seeds)
		}
		ratio := func(field string, v float64) {
			if v < 0 || v > 1 {
				bad(field, "%v outside 0..1", v)
			}
		}
		if d := g.Delivery; d != nil {
			ratio("gates.delivery.median_min", d.MedianMin)
			ratio("gates.delivery.p95_min", d.P95Min)
			ratio("gates.delivery.min_min", d.MinMin)
		}
		ratio("gates.control_airtime_share_max", g.ControlAirtimeShareMax)
		for i, sl := range g.SpanLatency {
			field := fmt.Sprintf("gates.span_latency[%d]", i)
			known := false
			for _, st := range obs.SpanStages() {
				if sl.Stage == st {
					known = true
					break
				}
			}
			if !known {
				bad(field+".stage", "unknown stage %q (want one of %s)",
					sl.Stage, strings.Join(obs.SpanStages(), ", "))
			}
			if sl.ShareP95Max < 0 || sl.ShareP95Max > 1 {
				bad(field+".share_p95_max", "%v outside 0..1", sl.ShareP95Max)
			}
			if sl.ShareP95Max == 0 && sl.P95Max == 0 {
				bad(field, "needs share_p95_max or p95_max")
			}
		}
	}

	if probs != nil {
		return &ValidationError{Name: sc.Name, Problems: probs}
	}
	return nil
}

// checkRadioPair validates that two named hosts exist and share a
// radio channel — the precondition for cuts and flaps, which sever
// and heal reachability on that channel.
func (sc *Scenario) checkRadioPair(field, a, b string, bad func(field, format string, args ...any)) {
	if a == b {
		bad(field, "a and b are both %q", a)
		return
	}
	ra, errA := sc.resolveHost(a)
	if errA != nil {
		bad(field+".a", "%v", errA)
	}
	rb, errB := sc.resolveHost(b)
	if errB != nil {
		bad(field+".b", "%v", errB)
	}
	if errA != nil || errB != nil {
		return
	}
	if ra.channel < 0 || rb.channel < 0 {
		bad(field, "%q and %q must both be radio hosts", a, b)
		return
	}
	if ra.channel != rb.channel {
		bad(field, "%q (channel %d) and %q (channel %d) share no radio channel",
			a, ra.channel+1, b, rb.channel+1)
	}
}
