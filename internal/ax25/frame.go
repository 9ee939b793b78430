package ax25

import (
	"errors"
	"fmt"
	"strings"
)

// PID (protocol identifier) values, carried in I and UI frames to tell
// the receiver which layer-3 protocol the information field holds. The
// paper's driver demultiplexes on exactly this field: IP goes to the
// kernel's IP input queue, everything else to a tty queue for
// user-space protocol handlers.
const (
	PIDIP     = 0xCC // ARPA Internet Protocol
	PIDARP    = 0xCD // ARPA Address Resolution Protocol
	PIDNetROM = 0xCF // NET/ROM network layer
	PIDNone   = 0xF0 // no layer 3 (plain AX.25 text sessions, BBSs)
	PIDSegF   = 0x08 // segmentation fragment (recognized, not generated)
)

// Kind is a frame kind, derived from the control field.
type Kind uint8

const (
	KindI    Kind = iota // information (connected mode)
	KindRR               // receive ready (supervisory)
	KindRNR              // receive not ready
	KindREJ              // reject
	KindSABM             // connect request (unnumbered)
	KindUA               // unnumbered acknowledge
	KindDISC             // disconnect request
	KindDM               // disconnected mode
	KindFRMR             // frame reject
	KindUI               // unnumbered information (datagrams: IP, ARP...)
)

func (k Kind) String() string {
	switch k {
	case KindI:
		return "I"
	case KindRR:
		return "RR"
	case KindRNR:
		return "RNR"
	case KindREJ:
		return "REJ"
	case KindSABM:
		return "SABM"
	case KindUA:
		return "UA"
	case KindDISC:
		return "DISC"
	case KindDM:
		return "DM"
	case KindFRMR:
		return "FRMR"
	case KindUI:
		return "UI"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// control-field templates (modulo-8 operation).
const (
	ctlI    = 0x00
	ctlRR   = 0x01
	ctlRNR  = 0x05
	ctlREJ  = 0x09
	ctlSABM = 0x2F
	ctlUA   = 0x63
	ctlDISC = 0x43
	ctlDM   = 0x0F
	ctlFRMR = 0x87
	ctlUI   = 0x03
	ctlPF   = 0x10 // poll/final bit
)

// Digi is one digipeater hop in the source route: the station address
// plus the H ("has been repeated") bit set once that station actually
// repeats the frame.
type Digi struct {
	Addr     Addr
	Repeated bool
}

// MaxDigis is the protocol limit on the digipeater path: "The standard
// amateur packet radio link layer protocol allows the specification of
// up to eight digipeaters through which a packet is to pass."
const MaxDigis = 8

// Frame is a decoded AX.25 frame (without FCS — the TNC strips and
// checks it before the host sees the frame, per §2.1 of the paper).
type Frame struct {
	Dst  Addr
	Src  Addr
	Digi []Digi // source route, at most MaxDigis entries

	Kind Kind
	// NR and NS are the receive and send sequence numbers (mod 8) for I
	// and supervisory frames.
	NR, NS uint8
	// PF is the poll (command) / final (response) bit.
	PF bool
	// Command reports the C bits: true when dst C=1, src C=0 (a command
	// frame in AX.25 v2); false for responses. UI datagrams from the
	// KA9Q lineage are sent as commands.
	Command bool

	PID  uint8  // present for I and UI frames only
	Info []byte // information field
}

var (
	errShortFrame = errors.New("ax25: frame too short")
	errTooMany    = errors.New("ax25: more than 8 digipeaters")
	errBadControl = errors.New("ax25: unrecognized control field")
)

// MaxInfo is the default largest information field (PACLEN), 256 bytes,
// the conventional packet-radio maximum and the basis of the AX.25
// interface MTU in this reproduction.
const MaxInfo = 256

// NewUI builds a UI datagram frame, the workhorse of the paper's
// driver: every encapsulated IP or ARP packet travels in one.
func NewUI(dst, src Addr, pid uint8, info []byte) *Frame {
	return &Frame{Dst: dst, Src: src, Kind: KindUI, PID: pid, Info: info, Command: true}
}

// Via returns a copy of f with the given digipeater path.
func (f *Frame) Via(digis ...Addr) *Frame {
	g := *f
	g.Digi = make([]Digi, len(digis))
	for i, d := range digis {
		g.Digi[i] = Digi{Addr: d}
	}
	return &g
}

func (f *Frame) control() byte {
	var c byte
	switch f.Kind {
	case KindI:
		c = ctlI | f.NS&7<<1 | f.NR&7<<5
	case KindRR:
		c = ctlRR | f.NR&7<<5
	case KindRNR:
		c = ctlRNR | f.NR&7<<5
	case KindREJ:
		c = ctlREJ | f.NR&7<<5
	case KindSABM:
		c = ctlSABM &^ ctlPF
	case KindUA:
		c = ctlUA &^ ctlPF
	case KindDISC:
		c = ctlDISC &^ ctlPF
	case KindDM:
		c = ctlDM &^ ctlPF
	case KindFRMR:
		c = ctlFRMR &^ ctlPF
	case KindUI:
		c = ctlUI
	}
	if f.PF {
		c |= ctlPF
	}
	return c
}

func (f *Frame) hasPID() bool { return f.Kind == KindI || f.Kind == KindUI }

// Encode appends the wire form of f (without FCS) to dst.
func (f *Frame) Encode(dst []byte) ([]byte, error) {
	if len(f.Digi) > MaxDigis {
		return nil, errTooMany
	}
	var a [AddrLen]byte
	// AX.25 v2 command/response encoding: C bit of dst = command,
	// C bit of src = response.
	f.Dst.encode(a[:], f.Command, false)
	dst = append(dst, a[:]...)
	f.Src.encode(a[:], !f.Command, len(f.Digi) == 0)
	dst = append(dst, a[:]...)
	for i, d := range f.Digi {
		d.Addr.encode(a[:], d.Repeated, i == len(f.Digi)-1)
		dst = append(dst, a[:]...)
	}
	dst = append(dst, f.control())
	if f.hasPID() {
		dst = append(dst, f.PID)
	}
	return append(dst, f.Info...), nil
}

// EncodedLen reports the wire size of f without FCS.
func (f *Frame) EncodedLen() int {
	n := AddrLen*(2+len(f.Digi)) + 1 + len(f.Info)
	if f.hasPID() {
		n++
	}
	return n
}

// Decode parses a wire-format frame (without FCS). The returned frame
// aliases src's info bytes; callers that retain frames across buffer
// reuse must copy.
func Decode(src []byte) (*Frame, error) {
	if len(src) < 2*AddrLen+1 {
		return nil, errShortFrame
	}
	f := &Frame{}
	if err := f.Decode(src); err != nil {
		return nil, err
	}
	return f, nil
}

// Decode parses src into f, overwriting every field and appending the
// digipeater path to f.Digi[:0], so a caller that owns f.Digi's
// storage (room for MaxDigis) decodes without allocating. Like the
// Decode function, it leaves f.Info aliasing src.
func (f *Frame) Decode(src []byte) error {
	*f = Frame{Digi: f.Digi[:0]}
	if len(src) < 2*AddrLen+1 {
		return errShortFrame
	}
	var err error
	var dstC, last bool
	f.Dst, dstC, last, err = decodeAddr(src)
	if err != nil {
		return err
	}
	if last {
		return errShortFrame // destination can never be the last address
	}
	src = src[AddrLen:]
	f.Src, _, last, err = decodeAddr(src)
	if err != nil {
		return err
	}
	src = src[AddrLen:]
	f.Command = dstC
	for !last {
		if len(f.Digi) == MaxDigis {
			return errTooMany
		}
		var d Digi
		d.Addr, d.Repeated, last, err = decodeAddr(src)
		if err != nil {
			return err
		}
		src = src[AddrLen:]
		f.Digi = append(f.Digi, d)
	}
	if len(src) < 1 {
		return errShortFrame
	}
	ctl := src[0]
	src = src[1:]
	f.PF = ctl&ctlPF != 0
	switch {
	case ctl&0x01 == 0: // I frame
		f.Kind = KindI
		f.NS = ctl >> 1 & 7
		f.NR = ctl >> 5 & 7
	case ctl&0x03 == 0x01: // supervisory
		f.NR = ctl >> 5 & 7
		switch ctl & 0x0F {
		case ctlRR:
			f.Kind = KindRR
		case ctlRNR:
			f.Kind = KindRNR
		case ctlREJ:
			f.Kind = KindREJ
		default:
			return errBadControl
		}
	default: // unnumbered
		switch ctl &^ ctlPF {
		case ctlSABM:
			f.Kind = KindSABM
		case ctlUA:
			f.Kind = KindUA
		case ctlDISC:
			f.Kind = KindDISC
		case ctlDM:
			f.Kind = KindDM
		case ctlFRMR:
			f.Kind = KindFRMR
		case ctlUI:
			f.Kind = KindUI
		default:
			return errBadControl
		}
	}
	if f.hasPID() {
		if len(src) < 1 {
			return errShortFrame
		}
		f.PID = src[0]
		src = src[1:]
	}
	f.Info = src
	return nil
}

// NextDigi returns the index of the first digipeater that has not yet
// repeated the frame, or -1 if the path is exhausted (or empty), in
// which case the frame is at large for its final destination.
func (f *Frame) NextDigi() int {
	for i, d := range f.Digi {
		if !d.Repeated {
			return i
		}
	}
	return -1
}

// LinkDst returns the station that should receive this frame on the
// air right now: the next unrepeated digipeater if any, else Dst.
func (f *Frame) LinkDst() Addr {
	if i := f.NextDigi(); i >= 0 {
		return f.Digi[i].Addr
	}
	return f.Dst
}

// String renders a monitor-style summary: "SRC>DST,DIGI*,DIGI: UI pid=CC len=40".
func (f *Frame) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s>%s", f.Src, f.Dst)
	for _, d := range f.Digi {
		b.WriteByte(',')
		b.WriteString(d.Addr.String())
		if d.Repeated {
			b.WriteByte('*')
		}
	}
	fmt.Fprintf(&b, ": %s", f.Kind)
	switch f.Kind {
	case KindI:
		fmt.Fprintf(&b, " ns=%d nr=%d", f.NS, f.NR)
	case KindRR, KindRNR, KindREJ:
		fmt.Fprintf(&b, " nr=%d", f.NR)
	}
	if f.PF {
		b.WriteString(" P/F")
	}
	if f.hasPID() {
		fmt.Fprintf(&b, " pid=%#02x len=%d", f.PID, len(f.Info))
	}
	return b.String()
}

// Clone deep-copies f so the copy survives buffer reuse.
func (f *Frame) Clone() *Frame {
	g := *f
	g.Digi = append([]Digi(nil), f.Digi...)
	g.Info = append([]byte(nil), f.Info...)
	return &g
}
