package radio

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"packetradio/internal/sim"
)

// FuzzContention cross-checks the event-driven contention engine
// against the seed's per-slot polling (the perSlotCSMA oracle) on
// arbitrary traffic programs, the way FuzzDecoder cross-checks bulk
// KISS decode against PutByte. The fuzz input is a tiny byte-coded
// schedule: each triple (station, size, gap) queues one frame, or,
// with the station byte's high bit set, flips whether that station is
// heard by another one (the size byte picks which), so reachability
// changes land under live carriers and planned draws; a header byte
// picks the station count, bit-error rate and an optional hidden pair.
// Both modes must produce the identical delivery trace and drain the
// wait-list.
func FuzzContention(f *testing.F) {
	f.Add(int64(1), []byte{3, 0, 0, 50, 1, 1, 60, 2, 2, 80, 3})
	f.Add(int64(7), []byte{0x85, 0, 200, 0, 1, 200, 0, 2, 200, 0, 3, 200, 0})
	f.Add(int64(42), []byte{0x43, 0, 10, 5, 1, 120, 0, 1, 30, 2, 0, 90, 7})
	f.Add(int64(5), []byte{0x02, 0, 200, 0, 1, 40, 1, 2, 40, 0, 0x80, 1, 3, 0x81, 0, 8, 0x80, 1, 9})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		if len(prog) == 0 {
			return
		}
		if len(prog) > 64 {
			prog = prog[:64] // bound the schedule so one exec stays cheap
		}
		header, ops := prog[0], prog[1:]
		stations := 2 + int(header&0x3)
		noisy := header&0x40 != 0
		hidden := header&0x80 != 0

		run := func(perSlot bool) string {
			s := sim.NewScheduler(seed)
			ch := NewChannel(s, 1200)
			if noisy {
				ch.BitErrorRate = 1e-4
			}
			var tr strings.Builder
			rfs := make([]*Transceiver, stations)
			for i := range rfs {
				rfs[i] = ch.Attach(fmt.Sprintf("S%d", i), DefaultParams())
				if perSlot {
					usePerSlot(rfs[i])
				}
				i := i
				rfs[i].SetReceiver(func(fr []byte, damaged bool) {
					fmt.Fprintf(&tr, "%v S%d len=%d damaged=%v\n", s.Now(), i, len(fr), damaged)
				})
			}
			if hidden {
				ch.SetReachable(rfs[0], rfs[1], false)
				ch.SetReachable(rfs[1], rfs[0], false)
			}
			at := time.Duration(0)
			for o := 0; o+2 < len(ops); o += 3 {
				st := rfs[int(ops[o]&0x7f)%stations]
				at += time.Duration(ops[o+2]) * 100 * time.Millisecond
				if ops[o]&0x80 != 0 {
					// A flip lands a few milliseconds and one nanosecond
					// past the frame schedule: off the slot grids, where
					// the two modes could order it differently against a
					// same-instant decision.
					to := rfs[(int(ops[o]&0x7f)+1+int(ops[o+1])%(stations-1))%stations]
					flipAt := sim.Time(at + time.Duration(ops[o+2]&7)*time.Millisecond + 1)
					s.At(flipAt, func() { ch.SetReachable(st, to, !ch.reachable(st, to)) })
					continue
				}
				size := 16 + int(ops[o+1])
				s.At(sim.Time(at), func() { st.Send(make([]byte, size)) })
			}
			s.Run()
			for i, rf := range rfs {
				fmt.Fprintf(&tr, "final S%d %+v queue=%d\n", i, rf.Stats, rf.QueueLen())
			}
			fmt.Fprintf(&tr, "channel %+v\n", ch.Stats)
			if ch.Waiters() != 0 {
				t.Fatalf("wait-list leaked %d entries (perSlot=%v)", ch.Waiters(), perSlot)
			}
			for i, rf := range rfs {
				if rf.QueueLen() != 0 {
					t.Fatalf("S%d wedged with %d queued frames (perSlot=%v)", i, rf.QueueLen(), perSlot)
				}
			}
			return tr.String()
		}
		old, ev := run(true), run(false)
		if old != ev {
			ol, el := strings.Split(old, "\n"), strings.Split(ev, "\n")
			for i := 0; i < len(ol) && i < len(el); i++ {
				if ol[i] != el[i] {
					t.Fatalf("modes diverge at line %d:\n per-slot: %s\n event:    %s", i, ol[i], el[i])
				}
			}
			t.Fatalf("trace lengths differ: %d vs %d lines", len(ol), len(el))
		}
	})
}
