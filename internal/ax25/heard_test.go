package ax25

import (
	"bytes"
	"slices"
	"testing"
)

// checkHeard holds one verdict to what a receiver computes for itself
// from framed: CheckFCS, then Decode of the body.
func checkHeard(t *testing.T, h *Heard, framed []byte) {
	t.Helper()
	body, ok := CheckFCS(framed)
	if h.OK != ok || !bytes.Equal(h.Body, body) {
		t.Fatalf("FCS verdict %v body %x, CheckFCS says %v %x", h.OK, h.Body, ok, body)
	}
	if !ok {
		if h.Err == nil {
			t.Fatal("bad FCS but the verdict has no error")
		}
		return
	}
	f, err := Decode(body)
	if (err == nil) != (h.Err == nil) {
		t.Fatalf("decode error %v, Decode says %v", h.Err, err)
	}
	if err != nil {
		return
	}
	if h.Frame.Dst != f.Dst || h.LinkDst != f.LinkDst() || !sameFrame(&h.Frame, f) {
		t.Fatalf("verdict frame %v (link %v), Decode says %v (link %v)", &h.Frame, h.LinkDst, f, f.LinkDst())
	}
}

// sameFrame compares decoded frames field by field (a nil and an empty
// digipeater path are the same path).
func sameFrame(a, b *Frame) bool {
	return a.Dst == b.Dst && a.Src == b.Src && slices.Equal(a.Digi, b.Digi) &&
		a.Kind == b.Kind && a.NR == b.NR && a.NS == b.NS && a.PF == b.PF &&
		a.Command == b.Command && a.PID == b.PID && bytes.Equal(a.Info, b.Info)
}

// padNUL maps NUL callsign bytes to the space Encode writes for them.
func padNUL(f *Frame) *Frame {
	g := f.Clone()
	pad := func(a *Addr) {
		for i, c := range a.Call {
			if c == 0 {
				a.Call[i] = ' '
			}
		}
	}
	pad(&g.Dst)
	pad(&g.Src)
	for i := range g.Digi {
		pad(&g.Digi[i].Addr)
	}
	return g
}

// FuzzHeard holds the shared receive verdict to the per-receiver work
// it replaces. For any on-air bytes, and for the same bytes with a
// valid FCS appended, Hear must agree with a fresh CheckFCS + Decode:
// the same FCS result, the same decode error-or-not, the same Dst and
// LinkDst. That holds for the receiver that computes the verdict, for
// the later ones that find it in the memo, and for a copy of the bytes
// at another address, which must get a verdict of its own. Nothing may
// panic, and a frame that decodes must survive Decode → Encode →
// Decode. (Encode writes a NUL callsign byte as the pad space, so the
// second decode reads spaces where the first read NULs.)
func FuzzHeard(f *testing.F) {
	ui, _ := NewUI(MustAddr("GW"), MustAddr("N7AKR-2"), PIDIP, []byte{0x45, 0, 0, 20}).Encode(nil)
	via := NewUI(MustAddr("KB7DZ"), MustAddr("W1GOH"), PIDNone, []byte("hi")).
		Via(MustAddr("RELAY-1"), MustAddr("RELAY-2"))
	via.Digi[0].Repeated = true
	digi, _ := via.Encode(nil)
	sabm, _ := (&Frame{Dst: MustAddr("BBS"), Src: MustAddr("N7AKR"), Kind: KindSABM, PF: true, Command: true}).Encode(nil)
	for _, seed := range [][]byte{ui, digi, sabm, AppendFCS(ui), {}, {0x7e}, ui[:AddrLen+3]} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		memo := new(any)
		for _, framed := range [][]byte{b, AppendFCS(slices.Clone(b))} {
			checkHeard(t, Hear(memo, framed), framed)
			checkHeard(t, Hear(memo, framed), framed) // a later receiver: from the memo
			cp := slices.Clone(framed)
			checkHeard(t, Hear(memo, cp), cp)

			h := Hear(memo, framed)
			if !h.OK || h.Err != nil {
				continue
			}
			enc, err := h.Frame.Encode(nil)
			if err != nil {
				t.Fatalf("re-encoding %v: %v", &h.Frame, err)
			}
			g, err := Decode(enc)
			if err != nil {
				t.Fatalf("re-decoding %v: %v", &h.Frame, err)
			}
			if want := padNUL(&h.Frame); !sameFrame(g, want) {
				t.Fatalf("round trip turned %v into %v", want, g)
			}
		}
	})
}

// TestHearSharesOneVerdict pins the memo: receivers of one transmission
// share the verdict, the next transmission replaces it, and neither
// the first computation nor a lookup allocates.
func TestHearSharesOneVerdict(t *testing.T) {
	mk := func(dst string) []byte {
		f := NewUI(MustAddr(dst), MustAddr("N7AKR"), PIDIP, []byte("payload")).
			Via(MustAddr("RELAY-1"), MustAddr("RELAY-2"))
		enc, err := f.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		return AppendFCS(enc)
	}
	a, b := mk("GW"), mk("KB7DZ")
	memo := new(any)
	h := Hear(memo, a)
	if !h.OK || h.Err != nil || h.Frame.Dst != MustAddr("GW") || h.LinkDst != MustAddr("RELAY-1") {
		t.Fatalf("verdict on a: %+v", h)
	}
	h.LinkDst = MustAddr("MARK")
	if Hear(memo, a).LinkDst != MustAddr("MARK") {
		t.Fatal("a later receiver of a recomputed its verdict")
	}
	if Hear(memo, b).Frame.Dst != MustAddr("KB7DZ") {
		t.Fatal("the next transmission got a stale verdict")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		Hear(memo, a)
		Hear(memo, a)
		Hear(memo, b)
	}); allocs != 0 {
		t.Fatalf("Hear allocates %.1f times per transmission", allocs)
	}
}
