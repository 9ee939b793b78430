package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"packetradio/internal/world"
)

// Verify builds regional-1000's world on both engines (the sharded one
// the benchmark times, and the single loop) and steps them side by
// side through the warm-up and a timed window sized like the
// benchmark's for the given seconds, one simulated minute at a time.
// The engines must agree on replies and on the multiset of RTTs after
// every step. Verify reports the first step where each diverges and
// returns an error if either does.
func Verify(out io.Writer, seed int64, seconds float64) error {
	w, err := Lookup("regional-1000")
	if err != nil {
		return err
	}
	minutes := w.units(seconds) / 60
	build := func(workers int) *world.Large {
		lw := world.NewLarge(world.LargeConfig{
			Seed: seed, Stations: 1000, Channels: 40,
			PingInterval: time.Minute, Workers: workers,
		})
		lw.W.Run(warmUp)
		return lw
	}
	seq, shd := build(0), build(2)
	var repliesAt, rttsAt time.Duration = -1, -1
	for m := 0; m <= minutes; m++ {
		if m > 0 {
			seq.W.Run(time.Minute)
			shd.W.Run(time.Minute)
		}
		at := warmUp + time.Duration(m)*time.Minute
		if repliesAt < 0 && seq.Replies != shd.Replies {
			repliesAt = at
			fmt.Fprintf(out, "verify seed %d: replies diverge at %v: single loop %d, sharded %d\n",
				seed, at, seq.Replies, shd.Replies)
		}
		if rttsAt < 0 {
			if n := multisetDiff(seq.RTTs, shd.RTTs); n > 0 {
				rttsAt = at
				fmt.Fprintf(out, "verify seed %d: RTT multisets diverge at %v: %d of %d samples differ\n",
					seed, at, n, len(seq.RTTs))
			}
		}
		if repliesAt >= 0 && rttsAt >= 0 {
			break
		}
	}
	if repliesAt >= 0 || rttsAt >= 0 {
		return fmt.Errorf("engines diverge (seed %d)", seed)
	}
	fmt.Fprintf(out, "verify seed %d: engines agree through %v (%d replies)\n",
		seed, warmUp+time.Duration(minutes)*time.Minute, seq.Replies)
	return nil
}

// multisetDiff counts the samples of a that b lacks (or the length
// difference, if larger).
func multisetDiff(a, b []time.Duration) int {
	x := append([]time.Duration(nil), a...)
	y := append([]time.Duration(nil), b...)
	sort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
	sort.Slice(y, func(i, j int) bool { return y[i] < y[j] })
	missing := 0
	for i, j := 0, 0; i < len(x); {
		switch {
		case j == len(y) || x[i] < y[j]:
			missing++
			i++
		case x[i] > y[j]:
			j++
		default:
			i++
			j++
		}
	}
	if d := len(x) - len(y); d > missing {
		return d
	}
	if d := len(y) - len(x); d > missing {
		return d
	}
	return missing
}
