package radio

import (
	"testing"

	"packetradio/internal/ax25"
	"packetradio/internal/sim"
)

// uiFrame is an FCS-suffixed UI frame from src to dst carrying info.
func uiFrame(t *testing.T, dst, src string, info []byte) []byte {
	t.Helper()
	enc, err := ax25.NewUI(ax25.MustAddr(dst), ax25.MustAddr(src), ax25.PIDNone, info).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return ax25.AppendFCS(enc)
}

// Two equal-length transmissions go out one after the other, so the
// second lands in the buffer the channel took back from the first.
// The shared receive verdict (ax25.Hear) is keyed on the bytes' address
// and length, which both frames share; the channel's Forget as it takes
// the first frame back is what gives the second its own verdict.
func TestRecycledFrameGetsItsOwnVerdict(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("a", fastParams())
	b := ch.Attach("b", fastParams())
	var dsts []string
	var addrs []*byte
	b.SetReceiver(func(f []byte, damaged bool) {
		h := ax25.Hear(ch.Memo(), f)
		if damaged || h.Err != nil {
			t.Fatalf("frame damaged=%v err=%v", damaged, h.Err)
		}
		dsts = append(dsts, h.LinkDst.String())
		addrs = append(addrs, &f[0])
	})
	a.Send(uiFrame(t, "N7AKR", "KB7DZ", []byte("one")))
	s.Run()
	a.Send(uiFrame(t, "W7LUS", "KB7DZ", []byte("two")))
	s.Run()
	if len(dsts) != 2 || addrs[0] != addrs[1] {
		t.Fatalf("got %d frames, same buffer %v: want 2 frames through one recycled buffer", len(dsts), len(addrs) == 2 && addrs[0] == addrs[1])
	}
	if dsts[0] != "N7AKR" || dsts[1] != "W7LUS" {
		t.Fatalf("verdicts name %v, want [N7AKR W7LUS]", dsts)
	}
}

// A transmission cut by Retune reaches the old channel's receivers as
// one damaged copy, and then its frame and the transmission go back to
// the old channel's lists exactly once (a poolcheck build panics on a
// second return); the cancelled completion never runs to return them
// again.
func TestRetuneReturnsTheCutFrameOnce(t *testing.T) {
	s := sim.NewScheduler(4)
	ch1 := NewChannel(s, 1200)
	ch2 := NewChannel(s, 1200)
	mob := ch1.Attach("MOB", Params{})
	home := ch1.Attach("HOME", Params{})
	damaged := 0
	home.SetReceiver(func(_ []byte, d bool) {
		if d {
			damaged++
		}
	})
	mob.Send(make([]byte, 100))
	for s.Pending() > 0 && len(ch1.active) == 0 {
		s.Step()
	}
	if ch1.frames.Len() != 0 || ch1.txs.Len() != 0 {
		t.Fatal("a frame is back on the list while on the air")
	}
	mob.Retune(ch2)
	if ch1.frames.Len() != 1 || ch1.txs.Len() != 1 {
		t.Fatalf("after the cut the old channel holds %d frames and %d transmissions, want 1 and 1", ch1.frames.Len(), ch1.txs.Len())
	}
	s.Run()
	if damaged != 1 || ch1.frames.Len() != 1 || ch1.txs.Len() != 1 || ch2.frames.Len() != 0 {
		t.Fatalf("damaged=%d, old channel lists %d/%d, new %d: want 1, 1/1, 0",
			damaged, ch1.frames.Len(), ch1.txs.Len(), ch2.frames.Len())
	}
}
