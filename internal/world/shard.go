// The world side of the sharded engine (DESIGN.md §3g):
// partitioning a generated topology into sim.Group shards and wiring
// the Ethernet backbone as the one conservative seam.
//
// The partition follows the radio geography. Each radio channel —
// with every station on it, its gateway host (both legs: the gateway's
// serial line, TNC and transceiver AND its Ethernet NIC), and its DAMA
// controller — is one shard; the Ethernet segment itself plus the
// Internet host form the backbone shard. The only place two shards
// touch is therefore a frame crossing the Ethernet wire, whose
// serialization delay is a known lower bound — the conservative
// lookahead. Everything radio-side (CSMA draws, DAMA polls, serial
// bytes) stays wholly inside one shard, which is what keeps per-shard
// event streams identical to the single-loop engine's.

package world

import (
	"fmt"
	"time"

	"packetradio/internal/dama"
	"packetradio/internal/ether"
	"packetradio/internal/radio"
	"packetradio/internal/sim"
)

// Shards returns the sharded engine behind this world, or nil on the
// single-loop engine.
func (w *World) Shards() *sim.Group { return w.group }

// EventsFired reports scheduler events executed across the whole
// world: the sum over shards on the sharded engine, or Sched.Fired on
// the single-loop one. Deterministic for a given seed and engine.
func (w *World) EventsFired() uint64 {
	if w.group != nil {
		return w.group.Fired()
	}
	return w.Sched.Fired()
}

// OnRunEnd registers fn to run after every World.Run window completes.
// Sharded worlds register their per-shard accumulator merges here;
// hooks run with no window in flight, so they may touch any shard's
// state.
func (w *World) OnRunEnd(fn func()) { w.onRunEnd = append(w.onRunEnd, fn) }

// newSharded builds the World shell for the sharded engine: a
// sim.Group with one backbone shard (which will own the Ethernet
// segment and the Internet host) and one shard per radio channel
// (which will own the channel, its stations, and its whole gateway
// host). Every shard's only outbound seam is the Ethernet, so the
// lookahead everywhere is the segment's minimum frame time.
//
// World.Sched starts out as the backbone shard's scheduler; NewLarge
// moves it shard to shard while constructing (a Host or Channel binds
// to whatever W.Sched reads at creation) and leaves it on the backbone
// — the construction-order trick that keeps the shared DeriveSeed
// stream consuming in exactly the sequential build's order.
func newSharded(seed int64, channels int) (*World, []*sim.Shard) {
	g := sim.NewGroup(seed)
	la := ether.MinFrameTime(0)
	shards := make([]*sim.Shard, 0, channels+1)
	shards = append(shards, g.NewShard("ether", la))
	for c := 0; c < channels; c++ {
		shards = append(shards, g.NewShard(fmt.Sprintf("ch%d", c+1), la))
	}
	w := &World{
		Sched:    shards[0].Sched,
		group:    g,
		hosts:    make(map[string]*Host),
		ethers:   make(map[string]*ether.Segment),
		channels: make(map[string]*radio.Channel),
		dama:     make(map[*radio.Channel]*dama.Controller),
	}
	return w, shards
}

// ShardStats is one shard's deterministic run counters, for E18 and
// the metrics registry.
type ShardStats struct {
	Name      string
	Events    uint64
	Delivered uint64 // cross-shard messages received
	Lookahead time.Duration
}

// ShardStats reports per-shard counters (nil on the single-loop
// engine).
func (w *World) ShardStats() []ShardStats {
	if w.group == nil {
		return nil
	}
	out := make([]ShardStats, 0, len(w.group.Shards()))
	for _, sh := range w.group.Shards() {
		out = append(out, ShardStats{
			Name:      sh.Name,
			Events:    sh.Sched.Fired(),
			Delivered: sh.Delivered(),
			Lookahead: sh.Lookahead(),
		})
	}
	return out
}
