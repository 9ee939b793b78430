package ax25

import "errors"

var errBadFCS = errors.New("ax25: bad frame check sequence")

// Heard is the receive verdict on one frame off the air: its FCS
// check and its decode. Every station that hears a transmission would
// compute the same verdict from the same bytes, so Hear computes it
// once per transmission and every receiver reads it.
type Heard struct {
	OK   bool   // the FCS matched
	Body []byte // the frame without its FCS

	// Err is Decode's error on Body (a bad-FCS error when !OK). When it
	// is nil, Frame is Body decoded and LinkDst is Frame.LinkDst().
	Err     error
	Frame   Frame
	LinkDst Addr

	on   []byte         // the on-air bytes the verdict is for
	digi [MaxDigis]Digi // Frame.Digi's storage
}

// Hear returns the verdict on framed, an FCS-suffixed frame as a radio
// channel hands it to one of its receivers. memo is the channel's
// shared slot (radio.Channel.Memo). The channel hands every receiver of
// a transmission the same read-only slice, so the first receiver
// computes the verdict into memo and the rest find it there by the
// slice's identity: one FCS check and one decode per transmission
// however many stations hear it, and no allocation.
//
// The verdict is shared: read it, never write it, and do not keep it,
// its Frame or its bytes past the receive callback. Frame.Info and Body
// alias the on-air bytes, which the channel reuses for a later frame
// once the last receiver has returned; the channel calls Forget then,
// so a frame that lands in the same bytes gets its own verdict.
func Hear(memo *any, framed []byte) *Heard {
	h, _ := (*memo).(*Heard)
	if h == nil {
		h = new(Heard)
		h.Frame.Digi = h.digi[:0]
		*memo = h
	}
	if len(framed) == 0 || len(framed) != len(h.on) || &framed[0] != &h.on[0] {
		h.hear(framed)
	}
	return h
}

// Forget drops the frame the verdict is for, so the next Hear computes
// a fresh one even for a frame at the same address.
func (h *Heard) Forget() { h.on = nil }

// hear computes the verdict on framed.
func (h *Heard) hear(framed []byte) {
	h.on = framed
	h.Body, h.OK = CheckFCS(framed)
	h.Err = errBadFCS
	if h.OK {
		h.Err = h.Frame.Decode(h.Body)
	}
	h.LinkDst = Addr{}
	if h.Err == nil {
		h.LinkDst = h.Frame.LinkDst()
	}
}
