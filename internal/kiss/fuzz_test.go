package kiss

import (
	"bytes"
	"fmt"
	"testing"
)

// decoderState snapshots everything observable about a Decoder: the
// delivered frames and every counter, plus the pending partial-frame
// state (so mid-stream divergence at chunk boundaries is caught even
// when no frame has completed yet).
type decoderState struct {
	frames   []Frame
	frameCnt uint64
	overruns uint64
	badEsc   uint64
	buf      []byte
	inFrame  bool
	escaped  bool
	dropped  bool
}

func capture(d *Decoder, frames []Frame) decoderState {
	return decoderState{
		frames:   frames,
		frameCnt: d.Frames,
		overruns: d.Overruns,
		badEsc:   d.BadEsc,
		buf:      append([]byte(nil), d.buf...),
		inFrame:  d.inFrame,
		escaped:  d.escaped,
		dropped:  d.dropped,
	}
}

func (a decoderState) equal(b decoderState) bool {
	if a.frameCnt != b.frameCnt || a.overruns != b.overruns || a.badEsc != b.badEsc ||
		a.inFrame != b.inFrame || a.escaped != b.escaped || a.dropped != b.dropped ||
		!bytes.Equal(a.buf, b.buf) || len(a.frames) != len(b.frames) {
		return false
	}
	for i := range a.frames {
		if a.frames[i].Port != b.frames[i].Port || a.frames[i].Command != b.frames[i].Command ||
			!bytes.Equal(a.frames[i].Payload, b.frames[i].Payload) {
			return false
		}
	}
	return true
}

// FuzzDecoder cross-checks byte-at-a-time PutByte decoding against bulk
// Write decoding for arbitrary input streams and arbitrary chunk split
// points — including FESC escapes split across a chunk boundary, the
// case the burst-mode serial path makes common.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{FEND, 0x00, 'h', 'i', FEND}, uint16(1))
	f.Add([]byte{FEND, 0x10, FESC, TFEND, FESC, TFESC, FEND}, uint16(2))
	// FESC as the last byte of a chunk (splitSize 3 splits mid-escape).
	f.Add([]byte{FEND, 0x00, FESC, TFEND, 'x', FEND}, uint16(3))
	// Bad escape, noise between frames, back-to-back FENDs.
	f.Add([]byte{'n', 'o', FEND, FEND, 0x00, FESC, 'Q', FEND}, uint16(2))
	// Overrun: more than MaxFrame bytes inside one frame.
	big := append([]byte{FEND, 0x00}, bytes.Repeat([]byte{'a'}, 40)...)
	f.Add(append(big, FEND), uint16(7))

	f.Fuzz(func(t *testing.T, data []byte, splitSize uint16) {
		// A small MaxFrame makes the overrun path reachable with short
		// fuzz inputs.
		const maxFrame = 32
		var refFrames, bulkFrames []Frame
		ref := Decoder{MaxFrame: maxFrame, Frame: collect(&refFrames)}
		bulk := Decoder{MaxFrame: maxFrame, Frame: collect(&bulkFrames)}

		for _, b := range data {
			ref.PutByte(b)
		}

		split := int(splitSize%64) + 1
		for off := 0; off < len(data); off += split {
			end := off + split
			if end > len(data) {
				end = len(data)
			}
			if n, err := bulk.Write(data[off:end]); err != nil || n != end-off {
				t.Fatalf("Write returned (%d, %v), want (%d, nil)", n, err, end-off)
			}
		}

		a, b := capture(&ref, refFrames), capture(&bulk, bulkFrames)
		if !a.equal(b) {
			t.Fatalf("byte-at-a-time and bulk decode diverged (split=%d)\n per-byte: %+v\n bulk:     %+v",
				split, a, b)
		}
	})
}

// TestWriteMatchesPutByteOnEveryPrefixSplit exhaustively checks a
// delicate stream at every single split point, so the boundary cases
// (FESC at the end of a chunk, FEND first in a chunk, overrun mid-run)
// are covered deterministically even without the fuzz corpus.
func TestWriteMatchesPutByteOnEveryPrefixSplit(t *testing.T) {
	stream := []byte{
		'n', FEND, 0x00, FESC, TFEND, 'a', FESC, TFESC, FEND, // frame with both escapes
		FEND, 0x10, FESC, 'Q', FEND, // bad escape
		FEND, 0x00, // start of oversized frame
	}
	stream = append(stream, bytes.Repeat([]byte{'z'}, 40)...)
	stream = append(stream, FEND)

	const maxFrame = 24
	for cut := 0; cut <= len(stream); cut++ {
		var refFrames, bulkFrames []Frame
		ref := Decoder{MaxFrame: maxFrame, Frame: collect(&refFrames)}
		bulk := Decoder{MaxFrame: maxFrame, Frame: collect(&bulkFrames)}
		for _, b := range stream {
			ref.PutByte(b)
		}
		bulk.Write(stream[:cut])
		bulk.Write(stream[cut:])
		a, b := capture(&ref, refFrames), capture(&bulk, bulkFrames)
		if !a.equal(b) {
			t.Fatalf("divergence at split %d:\n per-byte: %s\n bulk:     %s", cut, dump(a), dump(b))
		}
	}
}

func dump(s decoderState) string {
	return fmt.Sprintf("frames=%d overruns=%d badesc=%d buf=%x inFrame=%v escaped=%v dropped=%v",
		s.frameCnt, s.overruns, s.badEsc, s.buf, s.inFrame, s.escaped, s.dropped)
}

// refEncode is the byte-at-a-time encoder EncodeCommand replaced, kept
// as the oracle FuzzKISSEncode checks the run-copying encoder against.
func refEncode(dst []byte, port, command uint8, payload []byte) []byte {
	dst = append(dst, FEND)
	dst = refEscape(dst, (port<<4)|(command&0x0F))
	for _, b := range payload {
		dst = refEscape(dst, b)
	}
	return append(dst, FEND)
}

func refEscape(dst []byte, b byte) []byte {
	switch b {
	case FEND:
		return append(dst, FESC, TFEND)
	case FESC:
		return append(dst, FESC, TFESC)
	default:
		return append(dst, b)
	}
}

// FuzzKISSEncode encodes arbitrary frames into a reused, non-empty dst,
// as the driver and the TNC do, and checks that the prefix is left
// alone, that the appended bytes are exactly the reference encoder's,
// that EncodedLen predicts their number, that spare room for any
// encoding is used in place, and that the encoding decodes back to the
// frame whenever it fits the decoder's default MaxFrame.
func FuzzKISSEncode(f *testing.F) {
	f.Add([]byte{FEND, 0x00, 'x'}, uint8(0), uint8(CmdData), []byte("hello"), uint8(0))
	f.Add([]byte{1}, uint8(12), uint8(CmdData), []byte{1, 2, FEND, 3}, uint8(16))
	f.Add([]byte{}, uint8(13), uint8(0x0B), []byte{FESC, FESC, FEND, FESC}, uint8(3))
	f.Add([]byte{FESC}, uint8(0xFF), uint8(0xFF), []byte{}, uint8(200))
	f.Fuzz(func(t *testing.T, prefix []byte, port, command uint8, payload []byte, spare uint8) {
		dst := make([]byte, len(prefix), len(prefix)+int(spare))
		copy(dst, prefix)
		out := EncodeCommand(dst, port, command, payload)
		if !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatalf("prefix clobbered: % x -> % x", prefix, out[:len(prefix)])
		}
		got, want := out[len(prefix):], refEncode(nil, port, command, payload)
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeCommand(%d, %#x, % x) appended % x, reference % x", port, command, payload, got, want)
		}
		if n := EncodedLen(port, command, payload); n != len(got) {
			t.Fatalf("EncodedLen = %d, appended %d", n, len(got))
		}
		if len(dst) > 0 && int(spare) >= 2*len(payload)+4 && &out[0] != &dst[0] {
			t.Fatal("EncodeCommand reallocated although dst had room for any encoding")
		}
		if len(payload) >= DefaultMaxFrame {
			return // the command byte and payload overrun DecodeAll's decoder
		}
		frames := DecodeAll(got)
		if len(frames) != 1 {
			t.Fatalf("decoded %d frames from % x, want 1", len(frames), got)
		}
		fr := frames[0]
		if fr.Port != port&0x0F || fr.Command != command&0x0F || !bytes.Equal(fr.Payload, payload) {
			t.Fatalf("decoded %v payload % x, want port %d cmd %#x payload % x",
				fr, fr.Payload, port&0x0F, command&0x0F, payload)
		}
	})
}
