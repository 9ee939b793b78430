package socket

import (
	"fmt"
	"io"
)

// Framer assembles a pushed byte stream into lines and counted binary
// regions — the session buffering that telnet, FTP, SMTP, the BBS and
// the application gateway each used to hand-roll. It is transport
// agnostic: feed it from a stream socket via Pump, or from an AX.25
// connection's data callback.
type Framer struct {
	// OnLine receives each complete line, terminator stripped.
	OnLine func(line string)
	// OnData receives the bytes of a counted region started with
	// ExpectData; done marks the region's final chunk. Chunks alias
	// the pushed buffer — copy to retain.
	OnData func(chunk []byte, done bool)

	// LFOnly terminates lines on '\n' only, stripping one trailing
	// '\r' — the TCP service convention. When false a bare CR also
	// ends a line — the radio-terminal convention.
	LFOnly bool
	// KeepEmpty delivers empty lines too (SMTP bodies and BBS message
	// composition need them); otherwise they are dropped.
	KeepEmpty bool

	line []byte
	want int
}

// ExpectData routes the next n stream bytes to OnData instead of line
// assembly — the FTP data phase. Bytes already pushed stay consumed;
// call this from OnLine to switch modes mid-buffer.
func (f *Framer) ExpectData(n int) { f.want = n }

// Push feeds stream bytes through the framer.
func (f *Framer) Push(p []byte) {
	for len(p) > 0 {
		if f.want > 0 {
			n := f.want
			if n > len(p) {
				n = len(p)
			}
			chunk := p[:n]
			p = p[n:]
			f.want -= n
			if f.OnData != nil {
				f.OnData(chunk, f.want == 0)
			}
			continue
		}
		b := p[0]
		p = p[1:]
		if b == '\n' || (!f.LFOnly && b == '\r') {
			line := f.line
			if f.LFOnly && len(line) > 0 && line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			f.line = f.line[:0]
			if (len(line) > 0 || f.KeepEmpty) && f.OnLine != nil {
				f.OnLine(string(line))
			}
			continue
		}
		f.line = append(f.line, b)
	}
}

// Pump wires a stream socket's readable events into sink: every chunk
// that arrives is drained from the socket and handed over (sink must
// not retain the slice — a Framer.Push, for instance). onClose fires
// at most once when the stream ends: nil after a clean EOF, the
// latched error otherwise. A socket the application itself closed
// fires nothing. Any data already buffered (an accepted socket may
// arrive with bytes in hand) is drained immediately.
func Pump(s *Socket, sink func([]byte), onClose func(err error)) {
	done := false
	var buf [1024]byte
	finish := func(err error) {
		if done {
			return
		}
		done = true
		if onClose != nil {
			onClose(err)
		}
	}
	drain := func() {
		if done {
			return
		}
		for {
			n, err := s.Read(buf[:])
			if n > 0 && sink != nil {
				sink(buf[:n])
			}
			switch err {
			case nil:
				continue
			case ErrWouldBlock:
				return
			case io.EOF:
				finish(nil)
				return
			case ErrClosed:
				done = true // closed locally: no notification owed
				return
			default:
				finish(err)
				return
			}
		}
	}
	s.OnReadable = drain
	drain()
}

// Writer queues application output and trickles it into a stream
// socket as send-buffer space opens — the event-driven stand-in for a
// blocking write(2). The TCP-side buffer stays bounded at its
// high-water mark; what the application has explicitly queued (a file
// being RETRieved, a directory listing) waits here.
type Writer struct {
	// OnError fires once if the stream dies with an asynchronous
	// error while output is queued (the write(2) that would have
	// returned ECONNRESET). Socket-closed-by-us is not reported.
	OnError func(error)

	s               *Socket
	q               []byte
	closing         bool
	shutWhenDrained bool
	err             error
}

// NewWriter attaches a Writer to a stream socket. It takes over the
// socket's OnWritable upcall, and Shutdown(ShutWr) on the socket will
// wait for the Writer's queue to flush before sending FIN.
func NewWriter(s *Socket) *Writer {
	w := &Writer{s: s}
	s.wr = w
	s.OnWritable = w.pump
	return w
}

// Err reports the terminal error that stopped the Writer, if any.
func (w *Writer) Err() error { return w.err }

// Write queues p and pushes what fits now.
func (w *Writer) Write(p []byte) {
	w.q = append(w.q, p...)
	w.pump()
}

// Printf formats into the queue.
func (w *Writer) Printf(format string, args ...any) {
	w.Write([]byte(fmt.Sprintf(format, args...)))
}

// Buffered reports bytes queued but not yet accepted by the socket.
func (w *Writer) Buffered() int { return len(w.q) }

// Close flushes everything queued, then closes the socket.
func (w *Writer) Close() {
	w.closing = true
	w.pump()
}

func (w *Writer) pump() {
	for len(w.q) > 0 {
		n, err := w.s.Write(w.q)
		if n > 0 {
			w.q = w.q[n:]
		}
		if err != nil {
			if err == ErrWouldBlock {
				return // OnWritable will call back
			}
			// Terminal: latch the error (Write consumed the socket's
			// SO_ERROR) and report it, or a one-way sender would
			// conclude a dead transfer succeeded.
			w.q = nil
			if w.err == nil {
				w.err = err
				if err != ErrClosed && w.OnError != nil {
					w.OnError(err)
				}
			}
			break
		}
	}
	if len(w.q) > 0 {
		return
	}
	if w.closing {
		w.closing = false
		w.s.Close()
	} else if w.shutWhenDrained {
		w.shutWhenDrained = false
		w.s.Shutdown(ShutWr)
	}
}
