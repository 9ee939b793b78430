package socket

import (
	"bytes"
	"io"
	"testing"
	"time"

	"packetradio/internal/ether"
	"packetradio/internal/ip"
	"packetradio/internal/ipstack"
	"packetradio/internal/sim"
	"packetradio/internal/tcp"
)

// fixture: two hosts on one Ethernet with a socket layer each.
func twoLayers(t *testing.T) (*sim.Scheduler, *Layer, *Layer) {
	t.Helper()
	s := sim.NewScheduler(1)
	g := ether.NewSegment(s, 0)
	mk := func(name, addr string) *Layer {
		st := ipstack.New(s, name)
		n := g.Attach("qe0", ip.MustAddr(addr), st)
		n.Init()
		st.AddInterface(n, ip.MustAddr(addr), ip.MaskClassC)
		return New(st)
	}
	return s, mk("client", "10.0.0.1"), mk("server", "10.0.0.2")
}

var serverAddr = ip.MustAddr("10.0.0.2")

// warmARP resolves both hosts' ARP entries so tests that launch
// several same-instant packets don't lose all but one to the
// single-mbuf ARP hold queue.
func warmARP(t *testing.T, s *sim.Scheduler, a *Layer) {
	t.Helper()
	a.Stack().Ping(serverAddr, 8, nil)
	s.RunFor(time.Second)
}

// acceptOne arms a listener to hand its next connection to fn.
func acceptOne(t *testing.T, ln *Listener, fn func(*Socket)) {
	t.Helper()
	ln.OnAcceptable = func() {
		sock, err := ln.Accept()
		if err != nil {
			return
		}
		fn(sock)
	}
}

func TestStreamEndToEnd(t *testing.T) {
	s, cl, sl := twoLayers(t)
	ln, err := sl.Listen(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	acceptOne(t, ln, func(sock *Socket) {
		Pump(sock, func(p []byte) {
			got = append(got, p...)
			w := NewWriter(sock) // echo back
			w.Write(p)
		}, nil)
	})

	c := cl.Dial(serverAddr, 7)
	var echoed []byte
	Pump(c, func(p []byte) { echoed = append(echoed, p...) }, nil)
	connected := false
	c.OnConnect = func() { connected = true }
	cw := NewWriter(c)
	cw.Write([]byte("hello socket layer"))
	s.RunFor(time.Second)
	if !connected {
		t.Fatal("OnConnect never fired")
	}
	if string(got) != "hello socket layer" || string(echoed) != "hello socket layer" {
		t.Fatalf("got %q echoed %q", got, echoed)
	}
}

func TestStreamEOFAfterPeerClose(t *testing.T) {
	s, cl, sl := twoLayers(t)
	ln, _ := sl.Listen(7, 0)
	acceptOne(t, ln, func(sock *Socket) {
		w := NewWriter(sock)
		w.Write([]byte("bye"))
		w.Close() // flush then FIN
	})
	c := cl.Dial(serverAddr, 7)
	var got []byte
	sawEOF := false
	Pump(c, func(p []byte) { got = append(got, p...) },
		func(err error) { sawEOF = err == nil; c.Close() })
	s.RunFor(time.Minute)
	if string(got) != "bye" || !sawEOF {
		t.Fatalf("got %q, clean EOF=%v", got, sawEOF)
	}
}

// A full send buffer pushes back on the writer; a slow reader closes
// the advertised window and pushes back on the remote sender; reads
// reopen it end to end.
func TestSockbufBackpressure(t *testing.T) {
	s, cl, sl := twoLayers(t)
	ln, _ := sl.Listen(7, 0)
	var srv *Socket
	acceptOne(t, ln, func(sock *Socket) { srv = sock }) // accepts but does not read

	c := cl.Dial(serverAddr, 7)
	payload := bytes.Repeat([]byte("x"), 8192) // 4x both sockbufs
	w := NewWriter(c)
	w.Write(payload)
	s.RunFor(10 * time.Second)
	if srv == nil {
		t.Fatal("no connection")
	}
	// The receiver never read: its sockbuf (2048) is full, the window
	// is closed, and the sender cannot have pushed much beyond
	// rcv+snd sockbufs (plus a few one-byte window probes). Most of
	// the payload still waits in the Writer.
	if srv.Buffered() < DefaultBuf/2 || srv.Buffered() > DefaultBuf+64 {
		t.Fatalf("receive sockbuf = %d, want ~%d", srv.Buffered(), DefaultBuf)
	}
	if w.Buffered() < len(payload)-3*DefaultBuf {
		t.Fatalf("writer drained too far: %d left of %d", w.Buffered(), len(payload))
	}

	// Now read everything; window updates restart the sender.
	var got []byte
	Pump(srv, func(p []byte) { got = append(got, p...) }, nil)
	s.RunFor(2 * time.Minute)
	if len(got) != len(payload) {
		t.Fatalf("reader got %d of %d bytes", len(got), len(payload))
	}
	if w.Buffered() != 0 {
		t.Fatalf("writer still holds %d bytes", w.Buffered())
	}
}

func TestWriteWouldBlockAndOnWritable(t *testing.T) {
	s, cl, sl := twoLayers(t)
	ln, _ := sl.Listen(7, 0)
	var srv *Socket
	acceptOne(t, ln, func(sock *Socket) { srv = sock })
	c := cl.Dial(serverAddr, 7)
	s.RunFor(time.Second)

	// Fill the send buffer while the reader stalls.
	n, err := c.Write(bytes.Repeat([]byte("a"), 2*DefaultBuf))
	if err != nil || n != DefaultBuf {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	if _, err := c.Write([]byte("more")); err != ErrWouldBlock {
		t.Fatalf("overfull write err = %v, want ErrWouldBlock", err)
	}
	writable := false
	c.OnWritable = func() { writable = true }
	Pump(srv, nil, nil) // discard-reader unsticks the pipe
	s.RunFor(time.Minute)
	if !writable {
		t.Fatal("OnWritable never fired after drain")
	}
	if _, err := c.Write([]byte("more")); err != nil {
		t.Fatalf("write after drain: %v", err)
	}
}

// Dialing a dead port latches ECONNREFUSED, SO_ERROR style: the next
// Read reports it once, then the socket is just closed.
func TestErrorLatching(t *testing.T) {
	s, cl, sl := twoLayers(t)
	sl.TCP()                       // server TCP exists, so the dead port answers RST
	c := cl.Dial(serverAddr, 4444) // nothing listens
	s.RunFor(time.Minute)
	if c.Err() == nil {
		t.Fatal("no latched error")
	}
	var buf [16]byte
	if _, err := c.Read(buf[:]); err != tcp.ErrRefused {
		t.Fatalf("first read err = %v, want ErrRefused", err)
	}
	if _, err := c.Read(buf[:]); err != ErrClosed {
		t.Fatalf("second read err = %v, want ErrClosed", err)
	}
}

func TestShutdownWriteHalfClose(t *testing.T) {
	s, cl, sl := twoLayers(t)
	ln, _ := sl.Listen(7, 0)
	var fromClient []byte
	acceptOne(t, ln, func(sock *Socket) {
		w := NewWriter(sock)
		Pump(sock, func(p []byte) { fromClient = append(fromClient, p...) },
			func(err error) {
				// Client's FIN: answer over the still-open half, then close.
				w.Write([]byte("reply after your FIN"))
				w.Close()
			})
	})
	c := cl.Dial(serverAddr, 7)
	var got []byte
	Pump(c, func(p []byte) { got = append(got, p...) }, func(error) { c.Close() })
	cw := NewWriter(c)
	cw.Write([]byte("request"))
	s.RunFor(time.Second)
	c.Shutdown(ShutWr)
	s.RunFor(time.Minute)
	if string(fromClient) != "request" {
		t.Fatalf("server read %q", fromClient)
	}
	if string(got) != "reply after your FIN" {
		t.Fatalf("reply across half-closed conn: %q", got)
	}
	if _, err := c.Write([]byte("x")); err != ErrClosed {
		t.Fatalf("write after ShutWr: %v, want ErrClosed", err)
	}
}

// --- Listener edge cases -------------------------------------------------

// SYNs beyond the backlog are refused with RST: the over-limit client
// fails fast with ECONNREFUSED while queued ones stay intact.
func TestListenerBacklogOverflowSendsRST(t *testing.T) {
	s, cl, sl := twoLayers(t)
	ln, err := sl.Listen(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	warmARP(t, s, cl)
	// Nobody accepts: connections pile up in the queue.
	c1 := cl.Dial(serverAddr, 7)
	c2 := cl.Dial(serverAddr, 7)
	s.RunFor(time.Second)
	if ln.Pending() != 2 {
		t.Fatalf("queue = %d, want 2", ln.Pending())
	}
	c3 := cl.Dial(serverAddr, 7)
	s.RunFor(time.Minute)
	if got := c3.Err(); got != tcp.ErrRefused {
		t.Fatalf("over-backlog dial latched %v, want ErrRefused", got)
	}
	if sl.TCP().Stats.ListenRefused != 1 {
		t.Fatalf("ListenRefused = %d", sl.TCP().Stats.ListenRefused)
	}
	if c1.Err() != nil || c2.Err() != nil {
		t.Fatalf("queued connections damaged: %v %v", c1.Err(), c2.Err())
	}
	// Accepting drains the queue and reopens the backlog.
	if _, err := ln.Accept(); err != nil {
		t.Fatal(err)
	}
	c4 := cl.Dial(serverAddr, 7)
	s.RunFor(time.Second)
	if c4.Err() != nil {
		t.Fatalf("post-drain dial refused: %v", c4.Err())
	}
}

func TestListenerAcceptAfterClose(t *testing.T) {
	s, cl, sl := twoLayers(t)
	ln, _ := sl.Listen(7, 0)
	c := cl.Dial(serverAddr, 7)
	s.RunFor(time.Second)
	if ln.Pending() != 1 {
		t.Fatalf("queue = %d", ln.Pending())
	}
	ln.Close()
	if _, err := ln.Accept(); err != ErrClosed {
		t.Fatalf("Accept after Close = %v, want ErrClosed", err)
	}
	// The queued connection was reset.
	s.RunFor(time.Minute)
	if c.Err() == nil {
		t.Fatal("queued connection survived listener Close")
	}
	// And the port is free again.
	if _, err := sl.Listen(7, 0); err != nil {
		t.Fatalf("port not released: %v", err)
	}
}

func TestListenerDoubleCloseIdempotent(t *testing.T) {
	_, _, sl := twoLayers(t)
	ln, _ := sl.Listen(7, 0)
	ln.Close()
	ln.Close() // must not panic or disturb a successor
	ln2, err := sl.Listen(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // stale close after rebind
	if _, err := sl.Listen(7, 0); err == nil {
		t.Fatal("stale Close released the successor's port")
	}
	ln2.Close()
}

// --- Datagram and raw sockets --------------------------------------------

func TestDatagramRoundTrip(t *testing.T) {
	s, cl, sl := twoLayers(t)
	srv, err := sl.Datagram(53)
	if err != nil {
		t.Fatal(err)
	}
	srv.OnReadable = func() {
		for {
			d, err := srv.RecvFrom()
			if err != nil {
				return
			}
			srv.SendTo(d.Src, d.SrcPort, append([]byte("re: "), d.Data...))
		}
	}
	c, _ := cl.Datagram(0)
	var got []byte
	c.OnReadable = func() {
		d, err := c.RecvFrom()
		if err == nil {
			got = d.Data
		}
	}
	c.SendTo(serverAddr, 53, []byte("query"))
	s.RunFor(time.Second)
	if string(got) != "re: query" {
		t.Fatalf("got %q", got)
	}
	if _, err := c.RecvFrom(); err != ErrWouldBlock {
		t.Fatalf("empty RecvFrom = %v", err)
	}
}

func TestDatagramQueueDropsAtHiwat(t *testing.T) {
	s, cl, sl := twoLayers(t)
	srv, _ := sl.Datagram(53) // nobody draining
	c, _ := cl.Datagram(0)
	warmARP(t, s, cl)
	// The receive sockbuf holds DefaultBuf bytes; two more datagrams
	// overflow it.
	for i := 0; i < DefaultBuf/512+2; i++ {
		c.SendTo(serverAddr, 53, bytes.Repeat([]byte("d"), 512))
	}
	s.RunFor(time.Second)
	if srv.Stats.RcvDrops != 2 {
		t.Fatalf("RcvDrops = %d, want 2", srv.Stats.RcvDrops)
	}
	// Draining reopens the queue.
	if _, err := srv.RecvFrom(); err != nil {
		t.Fatal(err)
	}
	c.SendTo(serverAddr, 53, []byte("fits now"))
	s.RunFor(time.Second)
	if srv.Stats.RcvDrops != 2 {
		t.Fatalf("post-drain datagram dropped: %d", srv.Stats.RcvDrops)
	}
}

func TestRawSendViaAndReceive(t *testing.T) {
	const proto = 200
	s, cl, sl := twoLayers(t)
	rs, err := NewRaw(sl.Stack(), proto)
	if err != nil {
		t.Fatal(err)
	}
	var got *Datagram
	rs.OnReadable = func() {
		if d, err := rs.RecvFrom(); err == nil {
			got = &d
		}
	}
	rc, err := NewRaw(cl.Stack(), proto)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRaw(cl.Stack(), proto); err != ErrProtoInUse {
		t.Fatalf("duplicate raw bind = %v", err)
	}
	if err := rc.SendVia("qe0", ip.Limited, []byte("hello daemons")); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second)
	if got == nil || string(got.Data) != "hello daemons" || got.IfName != "qe0" {
		t.Fatalf("raw receive: %+v", got)
	}
	if got.Src != ip.MustAddr("10.0.0.1") {
		t.Fatalf("src = %v", got.Src)
	}
	rc.Close()
	// Close released the protocol: a fresh bind works.
	if _, err := NewRaw(cl.Stack(), proto); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestSocketCloseIdempotentAndTypeChecks(t *testing.T) {
	s, cl, sl := twoLayers(t)
	ln, _ := sl.Listen(7, 0)
	_ = ln
	c := cl.Dial(serverAddr, 7)
	s.RunFor(time.Second)
	if _, err := c.RecvFrom(); err != ErrType {
		t.Fatalf("RecvFrom on stream = %v", err)
	}
	d, _ := cl.Datagram(0)
	if _, err := d.Read(make([]byte, 8)); err != ErrType {
		t.Fatalf("Read on dgram = %v", err)
	}
	c.Close()
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := c.Write([]byte("x")); err != ErrClosed {
		t.Fatalf("write after close: %v", err)
	}
}

// --- Framer ---------------------------------------------------------------

func TestFramerLineModes(t *testing.T) {
	var lines []string
	f := &Framer{OnLine: func(l string) { lines = append(lines, l) }}
	// Radio convention: CR or LF both terminate, empties dropped.
	f.Push([]byte("one\rtwo\r\nthree\n\r"))
	if len(lines) != 3 || lines[0] != "one" || lines[1] != "two" || lines[2] != "three" {
		t.Fatalf("lines = %q", lines)
	}

	lines = nil
	lf := &Framer{LFOnly: true, KeepEmpty: true, OnLine: func(l string) { lines = append(lines, l) }}
	lf.Push([]byte("a\r\n"))
	lf.Push([]byte("\r\nb with \r inside\n"))
	want := []string{"a", "", "b with \r inside"}
	if len(lines) != len(want) {
		t.Fatalf("lines = %q", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestFramerCountedRegion(t *testing.T) {
	var lines []string
	var data []byte
	doneAt := -1
	f := &Framer{LFOnly: true}
	f.OnData = func(chunk []byte, done bool) {
		data = append(data, chunk...)
		if done {
			doneAt = len(data)
		}
	}
	f.OnLine = func(l string) {
		lines = append(lines, l)
		if l == "DATA 10" {
			f.ExpectData(10)
		}
	}
	// The line that announces the region, the region itself, and a
	// trailing line arrive in one push.
	f.Push([]byte("DATA 10\n0123456789TRAILER\n"))
	if len(lines) != 2 || lines[1] != "TRAILER" {
		t.Fatalf("lines = %q", lines)
	}
	if string(data) != "0123456789" || doneAt != 10 {
		t.Fatalf("data = %q doneAt=%d", data, doneAt)
	}
}

var _ = io.EOF

// Regression: closing a raw socket must not tear down a transport
// that has since claimed the same protocol number.
func TestRawCloseDoesNotStealSuccessorProto(t *testing.T) {
	s, cl, sl := twoLayers(t)
	const udpProto = 17
	raw, err := NewRaw(sl.Stack(), udpProto) // before any UDP mux exists
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sl.Datagram(53) // lazily creates the UDP mux, overwriting proto 17
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	PumpDatagrams(srv, func(d Datagram) { got = d.Data })
	raw.Close() // must NOT unregister the UDP mux's handler
	c, _ := cl.Datagram(0)
	c.SendTo(serverAddr, 53, []byte("still here"))
	s.RunFor(time.Second)
	if string(got) != "still here" {
		t.Fatalf("UDP handler was torn down by stale raw Close: got %q", got)
	}
}

// Regression: Shutdown(ShutWr) with data still queued in an attached
// Writer must defer the FIN until the queue drains, not truncate the
// stream.
func TestShutdownDefersToWriterQueue(t *testing.T) {
	s, cl, sl := twoLayers(t)
	ln, _ := sl.Listen(7, 0)
	var got []byte
	eof := false
	acceptOne(t, ln, func(sock *Socket) {
		Pump(sock, func(p []byte) { got = append(got, p...) },
			func(err error) { eof = err == nil })
	})
	c := cl.Dial(serverAddr, 7)
	w := NewWriter(c)
	payload := bytes.Repeat([]byte("z"), 3*DefaultBuf) // overflows the sockbuf
	w.Write(payload)
	c.Shutdown(ShutWr) // FIN must wait for the Writer
	s.RunFor(time.Minute)
	if len(got) != len(payload) {
		t.Fatalf("stream truncated at %d of %d bytes", len(got), len(payload))
	}
	if !eof {
		t.Fatal("deferred FIN never arrived")
	}
}

// Regression: a Writer-only sender (no Pump attached) must learn that
// its stream died instead of silently dropping the queue.
func TestWriterReportsAsyncError(t *testing.T) {
	s, cl, sl := twoLayers(t)
	sl.TCP() // dead port answers RST
	c := cl.Dial(serverAddr, 4444)
	w := NewWriter(c)
	var reported error
	w.OnError = func(err error) { reported = err }
	w.Write(bytes.Repeat([]byte("x"), 4*DefaultBuf))
	s.RunFor(time.Minute)
	if reported != tcp.ErrRefused || w.Err() != tcp.ErrRefused {
		t.Fatalf("writer error: OnError=%v Err()=%v, want ErrRefused", reported, w.Err())
	}
}

// A raw socket keeps copies: the stack lends a received payload for the
// call only, and the Ethernet frame it lies in goes back to the
// segment's list after the reception, so a datagram left queued stays
// intact when the next frame of the same length reuses those bytes.
func TestRawQueuedDatagramSurvivesFrameReuse(t *testing.T) {
	const proto = 200
	s, cl, sl := twoLayers(t)
	rs, err := NewRaw(sl.Stack(), proto)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRaw(cl.Stack(), proto)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{"datagram one", "datagram two"} {
		if err := rc.SendVia("qe0", ip.Limited, []byte(msg)); err != nil {
			t.Fatal(err)
		}
		s.RunFor(time.Second) // received, and its frame back on the list
	}
	for _, want := range []string{"datagram one", "datagram two"} {
		d, err := rs.RecvFrom()
		if err != nil || string(d.Data) != want {
			t.Fatalf("RecvFrom = %q, %v; want %q", d.Data, err, want)
		}
	}
}
