package socket

import (
	"errors"
	"testing"
	"time"

	"packetradio/internal/rdm"
)

func TestRDMSocketEndToEnd(t *testing.T) {
	s, cl, sl := twoLayers(t)
	warmARP(t, s, cl)

	var srv *Socket
	var got []Datagram
	ln, err := sl.ListenRDM(7)
	if err != nil {
		t.Fatal(err)
	}
	AcceptLoop(ln, func(sock *Socket) {
		srv = sock
		PumpDatagrams(sock, func(d Datagram) { got = append(got, d) })
	})

	c, err := cl.DialRDM(serverAddr, 7)
	if err != nil {
		t.Fatal(err)
	}
	var acked []uint16
	c.OnMsgDelivered = func(seq uint16) { acked = append(acked, seq) }

	if _, err := c.SendMsg(rdm.ReliableOrdered, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SendMsg(rdm.Unreliable, []byte("second")); err != nil {
		t.Fatal(err)
	}
	s.RunFor(10 * time.Second)

	if len(got) != 2 {
		t.Fatalf("received %d messages, want 2", len(got))
	}
	if string(got[0].Data) != "first" || got[0].Mode != rdm.ReliableOrdered {
		t.Fatalf("first message = %q mode %v", got[0].Data, got[0].Mode)
	}
	if string(got[1].Data) != "second" || got[1].Mode != rdm.Unreliable {
		t.Fatalf("second message = %q mode %v", got[1].Data, got[1].Mode)
	}
	if got[0].Src != cl.Stack().Addr() || got[0].SrcPort != srv.rdmc.RemotePort() {
		t.Fatalf("metadata: %v:%d", got[0].Src, got[0].SrcPort)
	}
	if len(acked) != 1 {
		t.Fatalf("OnMsgDelivered fired %d times, want 1 (reliable only)", len(acked))
	}
	if c.RDMPending() != 0 {
		t.Fatalf("RDMPending = %d after ack", c.RDMPending())
	}
	if cl.RDMActive() == nil || sl.RDMActive() == nil {
		t.Fatal("RDM transport not attached on both ends")
	}

	// Server replies on the accepted socket.
	if _, err := srv.SendMsg(rdm.Reliable, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	var reply Datagram
	c.OnReadable = func() {
		if d, err := c.RecvFrom(); err == nil {
			reply = d
		}
	}
	s.RunFor(10 * time.Second)
	if string(reply.Data) != "pong" {
		t.Fatalf("reply = %q, want pong", reply.Data)
	}

	// Orderly close propagates: the server side reads ErrClosed once
	// drained.
	c.Close()
	s.RunFor(10 * time.Second)
	if _, err := srv.RecvFrom(); !errors.Is(err, ErrClosed) {
		t.Fatalf("RecvFrom after peer close = %v, want ErrClosed", err)
	}
}

func TestRDMSocketTypeGuards(t *testing.T) {
	s, cl, sl := twoLayers(t)
	_ = s
	_ = sl
	stream := cl.Dial(serverAddr, 9)
	if _, err := stream.SendMsg(rdm.Reliable, []byte("x")); !errors.Is(err, ErrType) {
		t.Fatalf("SendMsg on stream = %v, want ErrType", err)
	}
	if _, err := stream.RecvFrom(); !errors.Is(err, ErrType) {
		t.Fatalf("RecvFrom on stream = %v, want ErrType", err)
	}
	if stream.MsgWritable(1) {
		t.Fatal("MsgWritable true on a stream socket")
	}
}

func TestListenerCloseClosesQueuedRDM(t *testing.T) {
	s, cl, sl := twoLayers(t)
	warmARP(t, s, cl)
	ln, err := sl.ListenRDM(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.DialRDM(serverAddr, 7)
	if err != nil {
		t.Fatal(err)
	}
	c.SendMsg(rdm.Reliable, []byte("hello"))
	s.RunFor(5 * time.Second)
	if ln.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", ln.Pending())
	}
	ln.Close()
	if _, err := ln.Accept(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Accept after Close = %v, want ErrClosed", err)
	}
	// The queued socket was closed; the dialer sees the Bye.
	s.RunFor(10 * time.Second)
	if _, err := c.RecvFrom(); !errors.Is(err, ErrClosed) {
		t.Fatalf("dialer RecvFrom = %v, want ErrClosed after listener close", err)
	}
}
