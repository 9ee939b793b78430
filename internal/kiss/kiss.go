// Package kiss implements the KISS ("Keep It Simple, Stupid")
// host-to-TNC framing protocol of Chepponis & Karn (6th ARRL Computer
// Networking Conference, 1987), the protocol the paper's pseudo-driver
// speaks over the RS-232 line to the TNC.
//
// KISS is a byte-stuffing protocol: each frame is delimited by FEND
// (0xC0); occurrences of FEND and FESC (0xDB) inside the frame are
// escaped as FESC TFEND and FESC TFESC. The first byte of every frame is
// a command byte whose low nibble is the command and high nibble the TNC
// port; command 0 carries link data, commands 1-6 set TNC parameters.
//
// The Decoder is a streaming state machine: the paper's most delicate
// kernel routine is the tty interrupt handler that "buffer[s]
// characters ... decod[ing] escaped frame end characters on the fly".
// PutByte is that per-character path; Write is the burst-mode
// equivalent the driver in internal/core now uses, consuming a whole
// serial run per call with identical decoding semantics.
package kiss

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
)

// Framing bytes.
const (
	FEND  = 0xC0 // frame end / delimiter
	FESC  = 0xDB // frame escape
	TFEND = 0xDC // transposed FEND (follows FESC)
	TFESC = 0xDD // transposed FESC (follows FESC)
)

// Command codes (low nibble of the command byte).
const (
	CmdData       = 0x0 // payload is a link-layer frame
	CmdTXDelay    = 0x1 // keyup delay, units of 10 ms
	CmdPersist    = 0x2 // CSMA persistence parameter p*256-1
	CmdSlotTime   = 0x3 // CSMA slot interval, units of 10 ms
	CmdTXTail     = 0x4 // time to hold transmitter after frame, 10 ms units
	CmdFullDuplex = 0x5 // 0 = half duplex CSMA, nonzero = full duplex
	CmdSetHW      = 0x6 // hardware-specific
	CmdReturn     = 0xF // exit KISS mode, return control to TNC ROM
)

// Frame is a decoded KISS frame: the port and command from the command
// byte, plus the unescaped payload (for CmdData, a raw AX.25 frame
// without FCS; the KISS TNC owns the checksum).
type Frame struct {
	Port    uint8 // TNC port, 0-15
	Command uint8 // one of the Cmd* constants
	Payload []byte
}

func (f Frame) String() string {
	return fmt.Sprintf("kiss{port=%d cmd=%#x len=%d}", f.Port, f.Command, len(f.Payload))
}

// ErrBadCommand reports a malformed command byte (CmdReturn with a
// nonzero port nibble is the only reserved combination KISS defines;
// we accept everything else).
var ErrBadCommand = errors.New("kiss: malformed command byte")

// Encode appends the KISS encoding of a data frame for port to dst and
// returns the extended slice. The frame is delimited by FEND on both
// sides, as recommended to flush line noise.
func Encode(dst []byte, port uint8, payload []byte) []byte {
	return EncodeCommand(dst, port, CmdData, payload)
}

// EncodeCommand appends an arbitrary-command KISS frame. Parameter
// frames (CmdTXDelay etc.) conventionally carry a single payload byte.
//
// dst grows at most once, to room for the worst case (every byte
// escaped) rather than counting escapes first, and the literal runs
// between framing bytes are copied whole, so encoding into a reused
// buffer (dst[:0]) allocates nothing once it is large enough.
func EncodeCommand(dst []byte, port, command uint8, payload []byte) []byte {
	dst = slices.Grow(dst, 2*len(payload)+4)
	dst = appendEscaped(append(dst, FEND), port<<4|command&0x0F)
	fend, fesc := index(payload, FEND), index(payload, FESC)
	lit := 0 // start of the literal run not yet copied
	for {
		i := min(fend, fesc)
		dst = append(dst, payload[lit:i]...)
		if i == len(payload) {
			return append(dst, FEND)
		}
		dst = appendEscaped(dst, payload[i])
		lit = i + 1
		if i == fend {
			fend = lit + index(payload[lit:], FEND)
		} else {
			fesc = lit + index(payload[lit:], FESC)
		}
	}
}

// index returns the index of the first b in p, or len(p) if there is
// none. It is small enough to inline, so a scan costs one call.
func index(p []byte, b byte) int {
	if i := bytes.IndexByte(p, b); i >= 0 {
		return i
	}
	return len(p)
}

func appendEscaped(dst []byte, b byte) []byte {
	switch b {
	case FEND:
		return append(dst, FESC, TFEND)
	case FESC:
		return append(dst, FESC, TFESC)
	default:
		return append(dst, b)
	}
}

// EncodedLen reports the exact number of bytes EncodeCommand appends
// for a frame on port with command and payload: the two FENDs, the
// command byte, and escapes. The command byte needs one too when it
// is itself a framing byte, as a data frame on port 12 (0xC0) is.
func EncodedLen(port, command uint8, payload []byte) int {
	n := 3 + len(payload) + bytes.Count(payload, []byte{FEND}) + bytes.Count(payload, []byte{FESC})
	if c := port<<4 | command&0x0F; c == FEND || c == FESC {
		n++
	}
	return n
}

// Decoder is a streaming KISS decoder. Feed it received bytes one at a
// time with PutByte (as a serial interrupt handler would); completed
// frames are delivered to the Frame callback. The decoder tolerates
// line noise between frames, back-to-back FENDs, and oversized frames
// (dropped and counted, like a kernel buffer overrun).
type Decoder struct {
	// Frame is invoked for each complete, non-empty frame. The payload
	// is lent: it is valid only until the callback returns, after which
	// the decoder reuses its buffer. A callee that keeps the bytes must
	// copy them. The decoder does not touch the lent bytes while the
	// callback runs, so a write into the decoder from inside it is safe.
	Frame func(Frame)

	// MaxFrame bounds the unescaped frame size (command byte included).
	// Frames that grow beyond it are discarded and counted in Overruns.
	// Zero means DefaultMaxFrame.
	MaxFrame int

	// Counters.
	Frames   uint64 // complete frames delivered
	Overruns uint64 // frames dropped for exceeding MaxFrame
	BadEsc   uint64 // FESC followed by neither TFEND nor TFESC

	buf     []byte
	inFrame bool
	escaped bool
	dropped bool
}

// DefaultMaxFrame is the decoder buffer limit when MaxFrame is zero:
// enough for a full AX.25 frame (1 control + 1 PID + 70 address + 256
// data, doubled for safety) plus the command byte.
const DefaultMaxFrame = 1024

func (d *Decoder) max() int {
	if d.MaxFrame > 0 {
		return d.MaxFrame
	}
	return DefaultMaxFrame
}

// PutByte feeds one received byte into the decoder.
func (d *Decoder) PutByte(b byte) {
	if b == FEND {
		d.endFrame()
		return
	}
	if !d.inFrame {
		// Noise between frames: KISS says bytes outside FEND...FEND
		// delimiters that don't start a frame are garbage. A frame
		// starts at the first byte after a FEND, so any byte here means
		// we missed the opening FEND; treat it as starting a frame
		// anyway (the command byte will likely be garbage and the
		// upper layer drops it), matching permissive TNC behaviour.
		d.inFrame = true
	}
	if d.escaped {
		d.escaped = false
		switch b {
		case TFEND:
			b = FEND
		case TFESC:
			b = FESC
		default:
			// Protocol violation: pass the byte through but count it.
			d.BadEsc++
		}
	} else if b == FESC {
		d.escaped = true
		return
	}
	if d.dropped {
		return
	}
	if len(d.buf) >= d.max() {
		d.dropped = true
		d.Overruns++
		return
	}
	d.buf = append(d.buf, b)
}

// Write feeds a burst of bytes; it never fails. Implements io.Writer so
// a Decoder can terminate any byte pipeline.
//
// Write is the burst-mode fast path: runs of in-frame bytes that need
// no unescaping, found with bytes.IndexByte, are appended to the frame
// buffer in one copy instead of one PutByte call each. Decoding is
// byte-for-byte identical to feeding the same stream through PutByte
// (the fuzz test cross-checks the two for arbitrary chunkings,
// including FESC split across chunks).
func (d *Decoder) Write(p []byte) (int, error) {
	fend, fesc := index(p, FEND), index(p, FESC)
	for i := 0; i < len(p); {
		// Escape pending or at a framing byte: let the state machine
		// handle one byte.
		if d.escaped || i == fend || i == fesc {
			d.PutByte(p[i])
			i++
			if fend < i {
				fend = i + index(p[i:], FEND)
			}
			if fesc < i {
				fesc = i + index(p[i:], FESC)
			}
			continue
		}
		// Literal run: everything up to the next FEND or FESC. Outside
		// a frame it opens one, as a literal byte does in PutByte.
		d.inFrame = true
		j := min(fend, fesc)
		d.putRun(p[i:j])
		i = j
	}
	return len(p), nil
}

// putRun appends a run of in-frame bytes containing no framing bytes,
// with PutByte's exact overrun semantics: bytes fit while the buffer is
// below the limit; the first byte past it drops the frame and counts
// one overrun.
func (d *Decoder) putRun(run []byte) {
	if d.dropped {
		return
	}
	if avail := d.max() - len(d.buf); len(run) > avail {
		if avail > 0 {
			d.buf = append(d.buf, run[:avail]...)
		}
		d.dropped = true
		d.Overruns++
		return
	}
	d.buf = append(d.buf, run...)
}

func (d *Decoder) endFrame() {
	buf := d.buf
	d.buf = d.buf[:0]
	wasDropped := d.dropped
	d.inFrame, d.escaped, d.dropped = false, false, false
	if wasDropped || len(buf) == 0 {
		return // empty frame between back-to-back FENDs, or overrun
	}
	d.Frames++
	if d.Frame == nil {
		return
	}
	// Lend buf to the callback. Until it returns, the decoder holds no
	// reference to buf, so a write from inside the callback starts a
	// fresh buffer; buf comes back for reuse only if none was started.
	d.buf = nil
	d.Frame(Frame{Port: buf[0] >> 4, Command: buf[0] & 0x0F, Payload: buf[1:len(buf):len(buf)]})
	if d.buf == nil {
		d.buf = buf[:0]
	}
}

// Reset discards any partial frame state.
func (d *Decoder) Reset() {
	d.buf = d.buf[:0]
	d.inFrame, d.escaped, d.dropped = false, false, false
}

// DecodeAll decodes every complete frame in p, for tools and tests that
// have the whole byte stream in memory. Each returned payload is a
// copy the caller owns.
func DecodeAll(p []byte) []Frame {
	var frames []Frame
	d := Decoder{Frame: func(f Frame) {
		f.Payload = append([]byte(nil), f.Payload...)
		frames = append(frames, f)
	}}
	for _, b := range p {
		d.PutByte(b)
	}
	return frames
}

// Params are the TNC channel-access parameters settable over KISS
// (commands 1-6). Zero value = KISS defaults.
type Params struct {
	TXDelay    byte // keyup delay in 10 ms units (default 50 = 500 ms)
	Persist    byte // p = (Persist+1)/256 (default 63 -> p=0.25)
	SlotTime   byte // slot in 10 ms units (default 10 = 100 ms)
	TXTail     byte // obsolete; kept for completeness
	FullDuplex bool
}

// DefaultParams returns the KISS-specified defaults.
func DefaultParams() Params {
	return Params{TXDelay: 50, Persist: 63, SlotTime: 10, TXTail: 0}
}

// Apply updates p from a parameter frame; data frames and unknown
// commands are ignored. Returns whether the frame changed a parameter.
func (p *Params) Apply(f Frame) bool {
	arg := byte(0)
	if len(f.Payload) > 0 {
		arg = f.Payload[0]
	}
	switch f.Command {
	case CmdTXDelay:
		p.TXDelay = arg
	case CmdPersist:
		p.Persist = arg
	case CmdSlotTime:
		p.SlotTime = arg
	case CmdTXTail:
		p.TXTail = arg
	case CmdFullDuplex:
		p.FullDuplex = arg != 0
	default:
		return false
	}
	return true
}
