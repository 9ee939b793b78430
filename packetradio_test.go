package packetradio_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"packetradio"
)

// These tests exercise the public facade exactly as a downstream user
// would, covering the paper's headline scenarios end to end.

func TestFacadeSeattlePingThroughGateway(t *testing.T) {
	s := packetradio.NewSeattle(packetradio.SeattleConfig{Seed: 1})
	var rtt time.Duration
	s.PCs[0].Stack.Ping(packetradio.InternetIP, 56,
		func(_ uint16, d time.Duration, _ packetradio.IPAddr) { rtt = d })
	s.W.Run(2 * time.Minute)
	if rtt == 0 {
		t.Fatal("no reply through the gateway")
	}
}

func TestFacadeTelnetSessionAcrossGateway(t *testing.T) {
	s := packetradio.NewSeattle(packetradio.SeattleConfig{Seed: 2, NumPCs: 1})
	inetSL := s.Internet.Sockets()
	inetSL.StreamDefaults = packetradio.TCPConfig{MSS: 216}
	if err := packetradio.ServeTelnet(inetSL, &packetradio.TelnetServer{Hostname: "june"}); err != nil {
		t.Fatal(err)
	}
	cl := packetradio.DialTelnet(s.PCs[0].Sockets(), packetradio.InternetIP)
	s.W.Run(3 * time.Minute)
	cl.SendLine("echo across the gateway")
	s.W.Run(3 * time.Minute)
	if !strings.Contains(cl.Output.String(), "across the gateway") {
		t.Fatalf("transcript: %q", cl.Output.String())
	}
}

func TestFacadeFixedVsAdaptiveRTO(t *testing.T) {
	run := func(mode packetradio.TCPConfig) uint64 {
		s := packetradio.NewSeattle(packetradio.SeattleConfig{Seed: 3, NumPCs: 1})
		inetSL := s.Internet.Sockets()
		mode.MSS = 216
		inetSL.StreamDefaults = mode
		pcSL := s.PCs[0].Sockets()
		var srv *packetradio.Socket
		ln, err := pcSL.Listen(9000, 5)
		if err != nil {
			t.Fatal(err)
		}
		ln.OnAcceptable = func() {
			sock, err := ln.Accept()
			if err != nil {
				return
			}
			srv = sock
			packetradio.Pump(sock, nil, nil) // discard-reader
		}
		conn := inetSL.Dial(packetradio.PCIP(0), 9000)
		w := packetradio.NewWriter(conn)
		w.Write(make([]byte, 2048))
		s.W.Run(15 * time.Minute)
		if srv == nil {
			t.Fatal("no connection")
		}
		return srv.StreamStats().DupBytes
	}
	fixed := run(packetradio.TCPConfig{Mode: packetradio.RTOFixed, MaxRetries: 100})
	adaptive := run(packetradio.TCPConfig{Mode: packetradio.RTOAdaptive})
	if fixed <= adaptive {
		t.Fatalf("§4.1 shape violated at the facade: fixed dup=%d adaptive dup=%d", fixed, adaptive)
	}
}

func TestFacadeCustomWorldWithDigipeater(t *testing.T) {
	w := packetradio.NewWorld(9)
	ch := w.Channel("145.01", 0)
	a := w.Host("a")
	a.AttachRadio(ch, "pr0", "AAA", packetradio.MustIP("44.24.0.1"),
		packetradio.IPMask{255, 0, 0, 0}, packetradio.RadioConfig{})
	b := w.Host("b")
	b.AttachRadio(ch, "pr0", "BBB", packetradio.MustIP("44.24.0.2"),
		packetradio.IPMask{255, 0, 0, 0}, packetradio.RadioConfig{})
	relay := w.Digipeater(ch, "RELAY")

	// Hide the endpoints from each other.
	ch.SetReachable(a.Radio("pr0").RF, b.Radio("pr0").RF, false)
	ch.SetReachable(b.Radio("pr0").RF, a.Radio("pr0").RF, false)
	da, db := a.Radio("pr0").Driver, b.Radio("pr0").Driver
	da.Resolver().AddStatic(packetradio.MustIP("44.24.0.2"), packetradio.MustCall("BBB").HW())
	da.SetPath(packetradio.MustIP("44.24.0.2"), packetradio.MustCall("RELAY"))
	db.Resolver().AddStatic(packetradio.MustIP("44.24.0.1"), packetradio.MustCall("AAA").HW())
	db.SetPath(packetradio.MustIP("44.24.0.1"), packetradio.MustCall("RELAY"))

	got := false
	a.Stack.Ping(packetradio.MustIP("44.24.0.2"), 32,
		func(uint16, time.Duration, packetradio.IPAddr) { got = true })
	w.Run(5 * time.Minute)
	if !got || relay.Stats.Repeated < 2 {
		t.Fatalf("digipeated ping failed: got=%v repeated=%d", got, relay.Stats.Repeated)
	}
}

func TestFacadeSMTPBothDirections(t *testing.T) {
	s := packetradio.NewSeattle(packetradio.SeattleConfig{Seed: 5, NumPCs: 1})
	inetSL := s.Internet.Sockets()
	inetSL.StreamDefaults = packetradio.TCPConfig{MSS: 216}
	pcSL := s.PCs[0].Sockets()
	inetMail := &packetradio.SMTPServer{Hostname: "june"}
	packetradio.ServeSMTP(inetSL, inetMail)
	pcMail := &packetradio.SMTPServer{Hostname: "pc1"}
	packetradio.ServeSMTP(pcSL, pcMail)

	packetradio.SendMail(pcSL, packetradio.InternetIP,
		packetradio.SMTPMessage{From: "op@pc1", To: "bcn@june", Body: "radio->inet"}, nil)
	packetradio.SendMail(inetSL, packetradio.PCIP(0),
		packetradio.SMTPMessage{From: "bcn@june", To: "op@pc1", Body: "inet->radio"}, nil)
	s.W.Run(20 * time.Minute)
	if len(inetMail.Mailboxes["bcn"]) != 1 || len(pcMail.Mailboxes["op"]) != 1 {
		t.Fatalf("mailboxes: inet=%d pc=%d",
			len(inetMail.Mailboxes["bcn"]), len(pcMail.Mailboxes["op"]))
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() (time.Duration, uint64) {
		s := packetradio.NewSeattle(packetradio.SeattleConfig{Seed: 77})
		var rtt time.Duration
		s.PCs[0].Stack.Ping(packetradio.InternetIP, 64,
			func(_ uint16, d time.Duration, _ packetradio.IPAddr) { rtt = d })
		s.W.Run(5 * time.Minute)
		return rtt, s.Gateway.Stack.Stats.Forwarded
	}
	rtt1, fwd1 := run()
	rtt2, fwd2 := run()
	if rtt1 != rtt2 || fwd1 != fwd2 {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", rtt1, fwd1, rtt2, fwd2)
	}
	if rtt1 == 0 {
		t.Fatal("ping failed")
	}
}

func TestFacadeFTPRoundTrip(t *testing.T) {
	s := packetradio.NewSeattle(packetradio.SeattleConfig{Seed: 8, NumPCs: 1})
	inetSL := s.Internet.Sockets()
	inetSL.StreamDefaults = packetradio.TCPConfig{MSS: 216}
	want := bytes.Repeat([]byte("44 Net"), 200)
	packetradio.ServeFTP(inetSL, &packetradio.FTPServer{Hostname: "june",
		Files: map[string][]byte{"f": want}})
	cl := packetradio.DialFTP(s.PCs[0].Sockets(), packetradio.InternetIP)
	done := false
	cl.OnComplete = func() { done = true }
	cl.Get("f")
	cl.Quit()
	s.W.Run(30 * time.Minute)
	got, ok := cl.File("f")
	if !done || !ok || !bytes.Equal(got, want) {
		t.Fatalf("ftp across gateway: done=%v ok=%v len=%d", done, ok, len(got))
	}
}
