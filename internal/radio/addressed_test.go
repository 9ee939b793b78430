package radio_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"packetradio/internal/radio"
	"packetradio/internal/sim"
)

// FuzzAddressedDelivery is the exactness oracle for the addressee walk
// (DESIGN.md §3b), as FuzzContention is for CSMA: one small random
// world runs twice, once with a Classify on its channels and once
// without (every frame walks every receiver), and both runs must give
// the same delivery trace — receiver, instant, damage, tap outcome —
// and the same settled counters. The trace leaves out the tap lines
// for frames a listener's receive callback discards as filtered: the
// addressee walk never hands a listener those frames, so its tap never
// sees them.
//
// A frame's first byte is its destination key, 0xFF for everyone, and
// its second is 0xCC for a poll the consuming accessor swallows. The
// stations, by index: 0 and 1 listen for the same key, 2 takes
// everything, 3 listens but runs a consuming accessor (so it takes
// everything too), 4 listens for its own key and 5 has no receiver.
// Each listener's receive callback discards, and counts, the intact
// frames for other keys, as Listen requires. The fuzz input is a
// header byte (station count, a hidden pair, a bit-error rate) and
// then four-byte ops (kind, a, b, gap) that send data or polls, set
// a pair's reachability, retune a station to the other channel,
// switch a station between Listen and ListenAll, attach and detach a
// tap, or swap an idle station's access policy between CSMA and the
// consuming one, each gap×50 ms after the last.
func FuzzAddressedDelivery(f *testing.F) {
	f.Add(int64(1), []byte{4, 0, 0, 1, 4, 0, 4, 0, 10, 1, 2, 2, 10})
	f.Add(int64(2), []byte{0x44, 0, 0, 1, 4, 0, 1, 5, 30, 4, 0, 1, 2, 0, 2, 0, 20})
	f.Add(int64(3), []byte{0x84, 0, 1, 0, 4, 3, 0, 1, 5, 0, 2, 4, 9, 1, 3, 2, 40})
	f.Add(int64(4), []byte{4, 6, 0, 0, 5, 0, 1, 4, 9, 6, 0, 0, 30, 0, 2, 1, 8, 7, 3, 3, 6})
	f.Add(int64(5), []byte{3, 0, 0, 0, 2, 0, 4, 0, 3, 5, 1, 0, 3, 0, 4, 1, 6, 5, 1, 0, 9, 0, 1, 0, 2})
	f.Add(int64(6), []byte{4, 0, 0, 4, 2, 6, 1, 2, 20, 0, 2, 1, 20, 6, 1, 2, 20, 0, 4, 1, 20})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		if len(prog) == 0 {
			return
		}
		if len(prog) > 81 {
			prog = prog[:81] // twenty ops keep one exec cheap
		}
		header, ops := prog[0], prog[1:]
		n := 2 + int(header&7)%5
		run := func(classify bool) string {
			tr, _ := addressedWorld(seed, n, header, ops, classify)
			return tr
		}
		full, walked := run(false), run(true)
		if full != walked {
			fl, wl := strings.Split(full, "\n"), strings.Split(walked, "\n")
			for i := 0; i < len(fl) && i < len(wl); i++ {
				if fl[i] != wl[i] {
					t.Fatalf("addressee walk diverges at line %d:\n full walk: %s\n addressed: %s", i+1, fl[i], wl[i])
				}
			}
			t.Fatalf("trace lengths differ: %d vs %d lines", len(fl), len(wl))
		}
	})
}

// classifyFirstByte is the fuzz world's Classifier: the frame's first
// byte is its destination key, 0xFF for everyone.
func classifyFirstByte(_ *radio.Channel, frame []byte) (uint64, bool) {
	if frame[0] == 0xFF {
		return 0, true
	}
	return uint64(frame[0]), false
}

// consumer is CSMA with a MAC that swallows polls, standing in for a
// DAMA member.
type consumer struct{ radio.Accessor }

func (consumer) Deliver(_ *radio.Transceiver, frame []byte, _ bool) ([]byte, bool) {
	return frame, frame[1] == 0xCC
}

// addressedWorld runs one FuzzAddressedDelivery program and returns
// its trace, and how many frames each station's receive callback was
// handed.
func addressedWorld(seed int64, n int, header byte, ops []byte, classify bool) (string, []int) {
	s := sim.NewScheduler(seed)
	chs := [2]*radio.Channel{radio.NewChannel(s, 1200), radio.NewChannel(s, 1200)}
	var tr strings.Builder
	name := func(c *radio.Channel) string {
		if c == chs[0] {
			return "A"
		}
		return "B"
	}
	for _, c := range chs {
		if classify {
			c.Classify = classifyFirstByte
		}
		if header&0x40 != 0 {
			c.BitErrorRate = 1e-4
		}
	}
	type station struct {
		rf        *radio.Transceiver
		key       uint64
		listening bool
		filtered  uint64
	}
	sts := make([]*station, n)
	handed := make([]int, n)
	for i := range sts {
		st := &station{rf: chs[0].Attach(fmt.Sprintf("S%d", i), radio.DefaultParams()), key: uint64(i)}
		sts[i] = st
		if i == 1 {
			st.key = 0
		}
		if i == 3 {
			st.rf.SetAccessor(consumer{radio.CSMAAccessor()})
		}
		if i != 2 && i != 5 {
			st.listening = true
			st.rf.Listen(st.key)
		}
		if i == 5 {
			continue
		}
		st.rf.SetReceiver(func(frame []byte, damaged bool) {
			handed[i]++
			if st.listening && !damaged && frame[0] != 0xFF && uint64(frame[0]) != st.key {
				st.filtered++
				return
			}
			fmt.Fprintf(&tr, "%v %s on %s: dst=%d len=%d damaged=%v\n",
				s.Now(), st.rf.Name, name(st.rf.Channel()), frame[0], len(frame), damaged)
		})
	}
	if header&0x80 != 0 && n > 2 {
		chs[0].SetReachable(sts[0].rf, sts[2].rf, false)
	}
	tap := func(sender, receiver *radio.Transceiver, payload []byte, outcome radio.TapOutcome, consumed bool) {
		for _, st := range sts {
			if st.rf == receiver && st.listening && outcome == radio.TapOK && !consumed &&
				payload[0] != 0xFF && uint64(payload[0]) != st.key {
				return // filtered: the receive callback discards it
			}
		}
		fmt.Fprintf(&tr, "%v tap %s->%s %v consumed=%v\n", s.Now(), sender.Name, receiver.Name, outcome, consumed)
	}
	at := time.Duration(0)
	for o := 0; o+3 < len(ops); o += 4 {
		kind, a, b := ops[o]&7, sts[int(ops[o+1])%n], ops[o+2]
		at += time.Duration(ops[o+3]) * 50 * time.Millisecond
		var op func()
		switch kind {
		case 0, 1, 2, 7: // data, or a poll
			dst := b % byte(n+1)
			if int(dst) == n {
				dst = 0xFF
			}
			frame := make([]byte, 16+40*int(kind&3))
			frame[0] = dst
			if kind == 7 {
				frame[1] = 0xCC
			}
			op = func() { a.rf.Send(frame) }
		case 3: // the pair may sit on two channels: a foreign pair counts too
			to, ok := sts[int(b>>1)%n], b&1 == 0
			op = func() { a.rf.Channel().SetReachable(a.rf, to.rf, ok) }
		case 4:
			op = func() {
				if a.rf.Channel() == chs[0] {
					a.rf.Retune(chs[1])
				} else {
					a.rf.Retune(chs[0])
				}
			}
		case 5:
			op = func() {
				a.listening = !a.listening
				if a.listening {
					a.key = uint64(b) % uint64(n)
					a.rf.Listen(a.key)
				} else {
					a.rf.ListenAll()
				}
			}
		case 6:
			c := chs[b&1]
			op = func() {
				if c.Tap == nil {
					c.Tap = tap
				} else {
					c.Tap = nil
				}
			}
			if b&2 != 0 {
				// Swap the access policy, which an idle station may do.
				op = func() {
					if a.rf.AccessPending() || a.rf.Transmitting() {
						return
					}
					if _, ok := a.rf.Accessor().(consumer); ok {
						a.rf.SetAccessor(radio.CSMAAccessor())
					} else {
						a.rf.SetAccessor(consumer{radio.CSMAAccessor()})
					}
				}
			}
		}
		// Ops land a nanosecond off the frame grid, so neither run can
		// order them differently against a same-instant completion.
		s.At(sim.Time(at+1), op)
	}
	s.Run()
	for i, st := range sts {
		ts := st.rf.Stats
		ts.FramesHeard = st.rf.FramesHeard()
		fmt.Fprintf(&tr, "final %s on %s %+v", st.rf.Name, name(st.rf.Channel()), ts)
		if i != 5 { // a receiver that counts what it discards
			fmt.Fprintf(&tr, " filtered=%d", st.filtered+st.rf.Passed())
		}
		fmt.Fprintln(&tr)
	}
	for _, c := range chs {
		cs := c.Stats
		cs.FramesHeard = c.FramesHeard()
		fmt.Fprintf(&tr, "channel %s %+v\n", name(c), cs)
	}
	return tr.String(), handed
}

// TestAddressedDeliveryReachesOnlyAddressees: with a Classify, a
// listener is never handed a frame for another key, yet its settled
// counters count it. S0 sends to key 4, S4 to key 0 (S0 and S1), and
// S2 to everyone; with six stations, b = 6 is everyone.
func TestAddressedDeliveryReachesOnlyAddressees(t *testing.T) {
	prog := []byte{5, 0, 0, 4, 4, 0, 4, 0, 40, 0, 2, 6, 40}
	full, fullHanded := addressedWorld(1, 6, prog[0], prog[1:], false)
	walked, handed := addressedWorld(1, 6, prog[0], prog[1:], true)
	if full != walked {
		t.Fatalf("addressee walk changed the trace:\nfull walk:\n%s\naddressed:\n%s", full, walked)
	}
	// S1 hears all three frames and takes two. S3 listens for key 3
	// behind a consuming MAC, so it is handed every frame it hears.
	if got, want := fmt.Sprint(fullHanded, handed), "[2 3 2 3 2 0] [2 2 2 3 2 0]"; got != want {
		t.Fatalf("receive callbacks ran (full walk, addressed) %s times, want %s\n%s", got, want, walked)
	}
	if want := "final S1 on A {FramesSent:0 FramesQueued:0 FramesHeard:3 "; !strings.Contains(walked, want) ||
		!strings.Contains(walked[strings.Index(walked, want):], "filtered=1\n") {
		t.Fatalf("S1 does not count the frame it was never handed:\n%s", walked)
	}
}
