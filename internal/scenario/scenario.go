// Package scenario is the declarative scenario layer: worlds as data
// instead of Go code. A scenario file (JSON or a TOML subset — see
// SCENARIOS.md for the full format reference) describes a topology,
// a traffic matrix and a failure schedule; Compile turns it into a
// world.World through the same LargeConfig/SeattleConfig surfaces the
// hand-built worlds use, and Evaluate sweeps it across seeds and checks the declared outcome bands — distributional
// CI gates for workloads where exact event counts are too brittle.
//
// The pipeline is parse → validate → compile → run → gate
// (DESIGN.md §3h): Load parses and validates, Compile builds a Runner
// for one seed, Runner.Run steps it and collects
// RunStats, and Evaluate aggregates many seeds through the same
// percentile machinery as experiments.Sweep before checking Gates.
package scenario

import (
	"encoding/json"
	"fmt"
	"time"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("90s", "10m"), the only time syntax scenario files use.
type Duration time.Duration

// D converts to the standard library type.
func (d Duration) D() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string ("30s", "1h10m").
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"30s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	if v < 0 {
		return fmt.Errorf("duration %q is negative", s)
	}
	*d = Duration(v)
	return nil
}

// Scenario is one parsed scenario file. Field-by-field documentation,
// defaults, units and validation rules live in SCENARIOS.md; the
// comments here are the short form.
type Scenario struct {
	// Name identifies the scenario in reports and metric labels.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	Topology Topology  `json:"topology"`
	Traffic  Traffic   `json:"traffic"`
	Failures []Failure `json:"failures,omitempty"`
	Run      RunSpec   `json:"run"`
	Gates    *Gates    `json:"gates,omitempty"`
}

// Topology selects and parameterizes the world.
type Topology struct {
	// Base is the world family: "large" (the default — the generated
	// N-station, M-channel scale world, world.NewLarge) or "seattle"
	// (the paper's §2.3 deployment, world.NewSeattle).
	Base string `json:"base,omitempty"`

	// Stations is the radio station count: "st0".."stN-1" on the
	// large base (default 10), PCs "pc1".."pcN" on seattle (default
	// 2).
	Stations int `json:"stations,omitempty"`

	// Channels is the radio channel count (large base only; stations
	// spread round-robin, one gateway "gw1".."gwM" per channel).
	// Default: one channel per 25 stations.
	Channels int `json:"channels,omitempty"`

	BitRate int `json:"bit_rate,omitempty"` // per-channel bps, default 1200
	Baud    int `json:"baud,omitempty"`     // RS-232 speed, default 9600

	// MAC is the channel-access policy for every port: "csma" (the
	// default) or "dama".
	MAC string `json:"mac,omitempty"`

	// NoAutoARP turns the NOS-style ARP conveniences off (large base
	// only) — strict RFC 826 traffic, the paper's mix.
	NoAutoARP bool `json:"no_auto_arp,omitempty"`

	// SecondGateway adds uw-gw2 (seattle base only).
	SecondGateway bool `json:"second_gateway,omitempty"`

	// Cuts lists host pairs whose radio link starts severed — link
	// geometry: hidden terminals, out-of-range stations. Both hosts
	// must share a radio channel.
	Cuts []Link `json:"cuts,omitempty"`
}

// Link names a pair of hosts for link geometry and flap schedules.
type Link struct {
	A string `json:"a"`
	B string `json:"b"`
}

// Traffic is the scenario's load: a baseline probe matrix (every
// station → the Internet host, on any transport), optionally shaped
// by a diurnal curve, plus flash crowds and per-pair flows.
type Traffic struct {
	// Transport carries the baseline probes and flash crowds: "icmp"
	// (default), "tcp" (one persistent stream per station) or "rdm"
	// (Reliable SOCK_RDM messages). Seattle base: icmp only.
	Transport string `json:"transport,omitempty"`

	// ProbeInterval is the baseline cadence: every station probes the
	// Internet host once per interval, phase-spread. 0 (absent) means
	// no baseline load.
	ProbeInterval Duration `json:"probe_interval,omitempty"`

	// Diurnal shapes the baseline rate over virtual time: piecewise-
	// constant multipliers on the probe rate ("rate": 2 halves the
	// interval). Points must be in ascending "at" order; the rate
	// before the first point is 1.
	Diurnal []RatePoint `json:"diurnal,omitempty"`

	// FlashCrowds are synchronized bursts: at "at", "stations"
	// stations (starting at index "first") each fire "probes" extra
	// probes "spacing" apart, with per-station start offsets of
	// "stagger".
	FlashCrowds []Flash `json:"flash_crowds,omitempty"`

	// Pairs are per-pair ICMP echo flows between named hosts —
	// station-to-station traffic crossing gateways, BBS-forwarding-
	// shaped meshes. (TCP/RDM pair flows are not yet expressible; the
	// baseline transport covers those.)
	Pairs []PairFlow `json:"pairs,omitempty"`
}

// RatePoint is one diurnal breakpoint: from At on, the baseline probe
// rate is multiplied by Rate (until the next point).
type RatePoint struct {
	At   Duration `json:"at"`
	Rate float64  `json:"rate"`
}

// Flash is one flash-crowd burst.
type Flash struct {
	At       Duration `json:"at"`
	Stations int      `json:"stations,omitempty"` // participants, default all
	First    int      `json:"first,omitempty"`    // first participating station index
	Probes   int      `json:"probes,omitempty"`   // extra probes per station, default 1
	Spacing  Duration `json:"spacing,omitempty"`  // gap between one station's probes, default 1s
	Stagger  Duration `json:"stagger,omitempty"`  // per-station start offset, default 0
}

// PairFlow is one host-to-host ICMP echo flow.
type PairFlow struct {
	From     string   `json:"from"`
	To       string   `json:"to"`
	Interval Duration `json:"interval"`
	Start    Duration `json:"start,omitempty"` // first probe, default 0
	Stop     Duration `json:"stop,omitempty"`  // no probes at/after this, 0 = run end
	Size     int      `json:"size,omitempty"`  // payload bytes, default 32
}

// Failure is one entry in the failure schedule. Times are absolute
// virtual time (the warmup counts). Kinds:
//
//   - "flap": the A–B radio link cycles down for DownFor, up for
//     UpFor (the hysteresis dwell), from From until Until (default:
//     run end, and the link always heals by then).
//   - "partition": channel Channel's gateway loses its radio leg —
//     every station on the channel is cut off from the backbone — at
//     From, healing at Until.
//   - "master_churn": every Every from From, channel Channel's
//     current DAMA master drops off the air for DownFor, forcing a
//     re-election; the old master then returns. Requires "mac":
//     "dama".
type Failure struct {
	Kind    string   `json:"kind"`
	A       string   `json:"a,omitempty"`
	B       string   `json:"b,omitempty"`
	Channel int      `json:"channel,omitempty"` // 1-based
	From    Duration `json:"from,omitempty"`
	Until   Duration `json:"until,omitempty"`
	DownFor Duration `json:"down_for,omitempty"`
	UpFor   Duration `json:"up_for,omitempty"`
	Every   Duration `json:"every,omitempty"`
}

// RunSpec is the run window: Warmup of untimed settling (ARP, DAMA
// election, first probe wave), then Duration of timed load. Stats
// cover the whole run; warmup matters because fates of early probes
// are part of the story.
type RunSpec struct {
	Warmup   Duration `json:"warmup,omitempty"` // default 30s
	Duration Duration `json:"duration"`
}

// Gates are the scenario's expected outcome bands, checked by
// Evaluate across Seeds independent seeds. Zero-valued bounds are
// unchecked.
type Gates struct {
	// Seeds is how many seeds the distributional check sweeps
	// (default 8; prsim -seeds overrides).
	Seeds int `json:"seeds,omitempty"`

	Delivery *DeliveryGate `json:"delivery,omitempty"`
	RTT      *RTTGate      `json:"rtt,omitempty"`

	// ControlAirtimeShareMax bounds the MAC control share of total
	// airtime (polls, elections), checked against the worst seed.
	ControlAirtimeShareMax float64 `json:"control_airtime_share_max,omitempty"`

	// SpanLatency bounds per-stage latency attribution from the packet
	// tracer (one entry per stage of interest). Listing any entry
	// attaches a tracer to every evaluation run.
	SpanLatency []SpanLatencyGate `json:"span_latency,omitempty"`
}

// SpanLatencyGate bounds one journey stage ("mac-wait", "airtime",
// "arp-wait", ...; see obs.SpanStages) over the traces pooled across
// every seed. ShareP95Max bounds the 95th percentile of the stage's
// share of each traced round trip (0..1); P95Max bounds the stage's
// absolute p95 duration. Zero-valued bounds are unchecked, but each
// entry must set at least one.
type SpanLatencyGate struct {
	Stage       string   `json:"stage"`
	ShareP95Max float64  `json:"share_p95_max,omitempty"`
	P95Max      Duration `json:"p95_max,omitempty"`
}

// DeliveryGate bounds the across-seed delivery-ratio distribution
// (replies/sent, 0..1). P95Min bounds the tail-worst seed (the 5th-
// percentile delivery — "how bad can a bad seed get").
type DeliveryGate struct {
	MedianMin float64 `json:"median_min,omitempty"`
	P95Min    float64 `json:"p95_min,omitempty"`
	MinMin    float64 `json:"min_min,omitempty"`
}

// RTTGate bounds the RTT percentiles pooled over every seed's
// replies.
type RTTGate struct {
	MedianMax Duration `json:"median_max,omitempty"`
	P95Max    Duration `json:"p95_max,omitempty"`
}

// Normalize fills every defaultable field in place, so an emitted
// scenario reads back identically and the compiler never guesses.
// Parse and Load call it before Validate.
func (sc *Scenario) Normalize() {
	if sc.Topology.Base == "" {
		sc.Topology.Base = "large"
	}
	if sc.Topology.Stations == 0 {
		if sc.Topology.Base == "seattle" {
			sc.Topology.Stations = 2
		} else {
			sc.Topology.Stations = 10
		}
	}
	if sc.Topology.Base == "large" && sc.Topology.Channels == 0 {
		sc.Topology.Channels = (sc.Topology.Stations + 24) / 25
	}
	if sc.Topology.BitRate == 0 {
		sc.Topology.BitRate = 1200
	}
	if sc.Topology.Baud == 0 {
		sc.Topology.Baud = 9600
	}
	if sc.Topology.MAC == "" {
		sc.Topology.MAC = "csma"
	}
	if sc.Traffic.Transport == "" {
		sc.Traffic.Transport = "icmp"
	}
	for i := range sc.Traffic.FlashCrowds {
		f := &sc.Traffic.FlashCrowds[i]
		if f.Stations == 0 {
			f.Stations = sc.Topology.Stations - f.First
		}
		if f.Probes == 0 {
			f.Probes = 1
		}
		if f.Spacing == 0 {
			f.Spacing = Duration(time.Second)
		}
	}
	for i := range sc.Traffic.Pairs {
		if sc.Traffic.Pairs[i].Size == 0 {
			sc.Traffic.Pairs[i].Size = 32
		}
	}
	if sc.Run.Warmup == 0 {
		sc.Run.Warmup = Duration(30 * time.Second)
	}
	end := Duration(sc.Run.Warmup.D() + sc.Run.Duration.D())
	for i := range sc.Failures {
		f := &sc.Failures[i]
		if f.Until == 0 {
			f.Until = end
		}
	}
	if sc.Gates != nil && sc.Gates.Seeds == 0 {
		sc.Gates.Seeds = 8
	}
}

// End reports the total run span (warmup + timed duration).
func (sc *Scenario) End() time.Duration { return sc.Run.Warmup.D() + sc.Run.Duration.D() }
