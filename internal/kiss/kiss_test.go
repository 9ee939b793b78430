package kiss

import (
	"bytes"
	"testing"
	"testing/quick"
)

// collect returns a Frame callback that appends each frame to *dst
// with its own copy of the payload, which the decoder only lends.
func collect(dst *[]Frame) func(Frame) {
	return func(f Frame) {
		f.Payload = append([]byte(nil), f.Payload...)
		*dst = append(*dst, f)
	}
}

func roundTrip(t *testing.T, payload []byte) Frame {
	t.Helper()
	enc := Encode(nil, 0, payload)
	frames := DecodeAll(enc)
	if len(frames) != 1 {
		t.Fatalf("decoded %d frames, want 1 (enc=% x)", len(frames), enc)
	}
	return frames[0]
}

func TestEncodeSimple(t *testing.T) {
	enc := Encode(nil, 0, []byte("TEST"))
	want := []byte{FEND, 0x00, 'T', 'E', 'S', 'T', FEND}
	if !bytes.Equal(enc, want) {
		t.Fatalf("Encode = % x, want % x", enc, want)
	}
}

func TestEscaping(t *testing.T) {
	payload := []byte{FEND, FESC, 0x42, FEND}
	f := roundTrip(t, payload)
	if !bytes.Equal(f.Payload, payload) {
		t.Fatalf("payload = % x, want % x", f.Payload, payload)
	}
	enc := Encode(nil, 0, payload)
	want := []byte{FEND, 0x00, FESC, TFEND, FESC, TFESC, 0x42, FESC, TFEND, FEND}
	if !bytes.Equal(enc, want) {
		t.Fatalf("Encode = % x, want % x", enc, want)
	}
}

func TestPortAndCommandNibbles(t *testing.T) {
	enc := EncodeCommand(nil, 3, CmdTXDelay, []byte{25})
	frames := DecodeAll(enc)
	if len(frames) != 1 {
		t.Fatalf("decoded %d frames", len(frames))
	}
	f := frames[0]
	if f.Port != 3 || f.Command != CmdTXDelay || len(f.Payload) != 1 || f.Payload[0] != 25 {
		t.Fatalf("got %+v", f)
	}
}

func TestEmptyFramesIgnored(t *testing.T) {
	frames := DecodeAll([]byte{FEND, FEND, FEND, FEND})
	if len(frames) != 0 {
		t.Fatalf("decoded %d frames from empty delimiters, want 0", len(frames))
	}
}

func TestBackToBackFrames(t *testing.T) {
	var enc []byte
	enc = Encode(enc, 0, []byte("ONE"))
	enc = Encode(enc, 0, []byte("TWO"))
	frames := DecodeAll(enc)
	if len(frames) != 2 {
		t.Fatalf("decoded %d frames, want 2", len(frames))
	}
	if string(frames[0].Payload) != "ONE" || string(frames[1].Payload) != "TWO" {
		t.Fatalf("frames = %v", frames)
	}
}

func TestSharedFENDBetweenFrames(t *testing.T) {
	// A single FEND may both close one frame and open the next.
	raw := []byte{FEND, 0x00, 'A', FEND, 0x00, 'B', FEND}
	frames := DecodeAll(raw)
	if len(frames) != 2 {
		t.Fatalf("decoded %d frames, want 2", len(frames))
	}
	if string(frames[0].Payload) != "A" || string(frames[1].Payload) != "B" {
		t.Fatalf("frames = %v", frames)
	}
}

func TestByteAtATimeEqualsBurst(t *testing.T) {
	payload := bytes.Repeat([]byte{FEND, 'x', FESC}, 40)
	enc := Encode(nil, 5, payload)

	var single, burst []Frame
	d1 := Decoder{Frame: collect(&single)}
	for _, b := range enc {
		d1.PutByte(b)
	}
	d2 := Decoder{Frame: collect(&burst)}
	if _, err := d2.Write(enc); err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || len(burst) != 1 {
		t.Fatalf("single=%d burst=%d, want 1 each", len(single), len(burst))
	}
	if !bytes.Equal(single[0].Payload, burst[0].Payload) {
		t.Fatal("byte-at-a-time and burst decodes disagree")
	}
	if single[0].Port != 5 {
		t.Fatalf("port = %d, want 5", single[0].Port)
	}
}

// TestLentPayloadSurvivesWriteFromCallback pins the lending rule: a
// callback that feeds the decoder another frame before it returns, as
// a loopback handler might, does not overwrite the payload it was lent.
func TestLentPayloadSurvivesWriteFromCallback(t *testing.T) {
	var d Decoder
	var got []string
	d.Frame = func(f Frame) {
		before := string(f.Payload)
		if before == "first" {
			d.Write(Encode(nil, 0, []byte("SECOND")))
		}
		if string(f.Payload) != before {
			t.Fatalf("payload changed under the callback: %q -> %q", before, f.Payload)
		}
		got = append(got, before)
	}
	d.Write(Encode(nil, 0, []byte("first")))
	d.Write(Encode(nil, 0, []byte("third")))
	if want := []string{"SECOND", "first", "third"}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("frames = %q, want %q", got, want)
	}
}

func TestOverrunDropsFrameAndCounts(t *testing.T) {
	var got []Frame
	d := Decoder{MaxFrame: 16, Frame: collect(&got)}
	big := Encode(nil, 0, bytes.Repeat([]byte{'a'}, 100))
	d.Write(big)
	ok := Encode(nil, 0, []byte("ok"))
	d.Write(ok)
	if d.Overruns != 1 {
		t.Fatalf("Overruns = %d, want 1", d.Overruns)
	}
	if len(got) != 1 || string(got[0].Payload) != "ok" {
		t.Fatalf("got %v, want single 'ok' frame after overrun recovery", got)
	}
}

func TestBadEscapeCounted(t *testing.T) {
	var got []Frame
	d := Decoder{Frame: collect(&got)}
	d.Write([]byte{FEND, 0x00, FESC, 0x41, FEND}) // FESC followed by 'A'
	if d.BadEsc != 1 {
		t.Fatalf("BadEsc = %d, want 1", d.BadEsc)
	}
	if len(got) != 1 || !bytes.Equal(got[0].Payload, []byte{0x41}) {
		t.Fatalf("got %v", got)
	}
}

func TestNoiseBeforeFirstFEND(t *testing.T) {
	// Bytes before any FEND are treated as a (garbage) frame; the
	// stream must resynchronize at the next FEND.
	var got []Frame
	d := Decoder{Frame: collect(&got)}
	d.Write([]byte{0x13, 0x37})
	d.Write(Encode(nil, 0, []byte("good")))
	if len(got) != 2 {
		t.Fatalf("decoded %d frames, want 2 (noise + good)", len(got))
	}
	if string(got[1].Payload) != "good" {
		t.Fatalf("second frame = %v", got[1])
	}
}

func TestReset(t *testing.T) {
	var got []Frame
	d := Decoder{Frame: collect(&got)}
	d.Write([]byte{FEND, 0x00, 'p', 'a', 'r', 't'})
	d.Reset()
	d.Write(Encode(nil, 0, []byte("whole")))
	if len(got) != 1 || string(got[0].Payload) != "whole" {
		t.Fatalf("got %v, want single 'whole' frame", got)
	}
}

func TestEncodedLenMatchesEncode(t *testing.T) {
	f := func(port, command uint8, payload []byte) bool {
		return EncodedLen(port, command, payload) == len(EncodeCommand(nil, port, command, payload))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEncodedLenEveryPort pins the command byte's own escape: a data
// frame on port 12 has command byte 0xC0 (FEND), which Encode escapes,
// so the payload below takes 9 bytes there and 8 on every other port.
func TestEncodedLenEveryPort(t *testing.T) {
	payload := []byte{0x01, 0x02, FEND, 0x03}
	for port := uint8(0); port < 16; port++ {
		want := 8
		if port == 12 {
			want = 9
		}
		if got := EncodedLen(port, CmdData, payload); got != want {
			t.Errorf("port %d: EncodedLen = %d, want %d", port, got, want)
		}
		for cmd := uint8(0); cmd < 16; cmd++ {
			enc := EncodeCommand(nil, port, cmd, payload)
			if got := EncodedLen(port, cmd, payload); got != len(enc) {
				t.Errorf("port %d cmd %#x: EncodedLen = %d, EncodeCommand appended %d (% x)",
					port, cmd, got, len(enc), enc)
			}
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(port uint8, payload []byte) bool {
		if len(payload) == 0 {
			return true // empty frames are indistinguishable from delimiters
		}
		port &= 0x0F
		enc := Encode(nil, port, payload)
		frames := DecodeAll(enc)
		return len(frames) == 1 &&
			frames[0].Port == port &&
			frames[0].Command == CmdData &&
			bytes.Equal(frames[0].Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickConcatenatedFrames(t *testing.T) {
	f := func(payloads [][]byte) bool {
		var enc []byte
		want := 0
		for _, p := range payloads {
			if len(p) == 0 {
				continue
			}
			enc = Encode(enc, 0, p)
			want++
		}
		return len(DecodeAll(enc)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParamsApply(t *testing.T) {
	p := DefaultParams()
	if p.TXDelay != 50 || p.Persist != 63 || p.SlotTime != 10 {
		t.Fatalf("defaults = %+v", p)
	}
	cases := []struct {
		cmd   uint8
		arg   byte
		check func() bool
	}{
		{CmdTXDelay, 30, func() bool { return p.TXDelay == 30 }},
		{CmdPersist, 255, func() bool { return p.Persist == 255 }},
		{CmdSlotTime, 5, func() bool { return p.SlotTime == 5 }},
		{CmdTXTail, 2, func() bool { return p.TXTail == 2 }},
		{CmdFullDuplex, 1, func() bool { return p.FullDuplex }},
	}
	for _, c := range cases {
		if !p.Apply(Frame{Command: c.cmd, Payload: []byte{c.arg}}) {
			t.Fatalf("Apply(%#x) returned false", c.cmd)
		}
		if !c.check() {
			t.Fatalf("Apply(%#x) did not set parameter: %+v", c.cmd, p)
		}
	}
	if p.Apply(Frame{Command: CmdData, Payload: []byte{1}}) {
		t.Fatal("Apply(data) should return false")
	}
	if p.Apply(Frame{Command: CmdSetHW}) {
		t.Fatal("Apply(sethw) should return false")
	}
}

func TestFrameString(t *testing.T) {
	s := Frame{Port: 2, Command: CmdData, Payload: []byte{1, 2, 3}}.String()
	if s != "kiss{port=2 cmd=0x0 len=3}" {
		t.Fatalf("String() = %q", s)
	}
}
