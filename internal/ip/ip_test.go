package ip

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	a, err := ParseAddr("44.24.0.28")
	if err != nil {
		t.Fatal(err)
	}
	if a != (Addr{44, 24, 0, 28}) {
		t.Fatalf("got %v", a)
	}
	if a.String() != "44.24.0.28" {
		t.Fatalf("String() = %q", a.String())
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "-1.0.0.0"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Fatalf("ParseAddr(%q) succeeded", bad)
		}
	}
}

func TestAddrPredicates(t *testing.T) {
	if !Zero.IsZero() || Limited.IsZero() {
		t.Fatal("IsZero")
	}
	if !Limited.IsBroadcast() || Zero.IsBroadcast() {
		t.Fatal("IsBroadcast")
	}
	if !MustAddr("224.0.0.1").IsMulticast() || MustAddr("44.0.0.1").IsMulticast() {
		t.Fatal("IsMulticast")
	}
}

func TestUint32RoundTrip(t *testing.T) {
	a := MustAddr("44.24.0.28")
	if AddrFromUint32(a.Uint32()) != a {
		t.Fatal("Uint32 round trip")
	}
	if a.Uint32() != 0x2C18001C {
		t.Fatalf("Uint32 = %#x", a.Uint32())
	}
}

func TestClassMask(t *testing.T) {
	cases := []struct {
		addr string
		mask Mask
	}{
		{"44.24.0.28", MaskClassA}, // AMPRnet is class A
		{"10.1.2.3", MaskClassA},
		{"128.95.1.2", MaskClassB}, // UW's net
		{"191.255.0.1", MaskClassB},
		{"192.1.2.3", MaskClassC},
		{"223.9.9.9", MaskClassC},
	}
	for _, c := range cases {
		if got := ClassMask(MustAddr(c.addr)); got != c.mask {
			t.Fatalf("ClassMask(%s) = %v, want %v", c.addr, got, c.mask)
		}
	}
}

func TestMaskApplyAndBits(t *testing.T) {
	a := MustAddr("44.24.1.28")
	if MaskClassA.Apply(a) != MustAddr("44.0.0.0") {
		t.Fatal("class A apply")
	}
	if MaskClassA.Bits() != 8 || MaskClassB.Bits() != 16 || MaskClassC.Bits() != 24 || MaskHost.Bits() != 32 {
		t.Fatal("Bits")
	}
	if !SameNet(MustAddr("44.1.2.3"), MustAddr("44.9.9.9"), MaskClassA) {
		t.Fatal("SameNet within net 44")
	}
	if SameNet(MustAddr("44.1.2.3"), MustAddr("45.1.2.3"), MaskClassA) {
		t.Fatal("SameNet across nets")
	}
}

// bitLoopBits is Mask.Bits' former bit-at-a-time count, the oracle
// for TestMaskBitsMatchesBitLoop.
func bitLoopBits(m Mask) int {
	n := 0
	for _, b := range m {
		for i := 7; i >= 0; i-- {
			if b&(1<<uint(i)) == 0 {
				return n
			}
			n++
		}
	}
	return n
}

// TestMaskBitsMatchesBitLoop checks Bits on all 33 prefix masks and on
// random non-contiguous ones.
func TestMaskBitsMatchesBitLoop(t *testing.T) {
	for n := 0; n <= 32; n++ {
		m := Mask(AddrFromUint32(uint32(uint64(0xffffffff) << (32 - n))))
		if got := m.Bits(); got != n || got != bitLoopBits(m) {
			t.Fatalf("/%d mask %v: Bits = %d", n, m, got)
		}
	}
	x := uint32(0x9e3779b9)
	for i := 0; i < 10000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		// Keep a random run of leading ones, then random bits.
		m := Mask(AddrFromUint32(^uint32(0)<<(x%33) | x))
		if got, want := m.Bits(), bitLoopBits(m); got != want {
			t.Fatalf("mask %v: Bits = %d, bit loop counts %d", m, got, want)
		}
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7 = 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Fatalf("Checksum = %#04x, want 0x220d", got)
	}
	// Odd-length input.
	if got := Checksum([]byte{0x01}); got != ^uint16(0x0100) {
		t.Fatalf("odd checksum = %#04x", got)
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	p := &Packet{
		Header: Header{
			TOS: 0x10, ID: 4242, TTL: 30, Proto: ProtoTCP,
			Src: MustAddr("128.95.1.2"), Dst: MustAddr("44.24.0.28"),
		},
		Payload: []byte("some transport payload"),
	}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Src != p.Src || q.Dst != p.Dst || q.Proto != p.Proto || q.TTL != p.TTL ||
		q.ID != p.ID || q.TOS != p.TOS || !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("round trip mismatch: %+v", q)
	}
}

func TestOptionsRoundTrip(t *testing.T) {
	p := &Packet{
		Header: Header{
			TTL: 1, Proto: ProtoUDP, Src: MustAddr("1.2.3.4"), Dst: MustAddr("5.6.7.8"),
			Options: []byte{7, 4, 0, 0}, // record-route-ish, padded to 4
		},
		Payload: []byte{0xAA},
	}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 20+4+1 {
		t.Fatalf("len = %d", len(buf))
	}
	q, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.Options, p.Options) || !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("options/payload mismatch: %+v", q)
	}
	// Unaligned options must be rejected.
	p.Options = []byte{1, 2, 3}
	if _, err := p.Marshal(); err == nil {
		t.Fatal("3-byte options should fail")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	p := &Packet{Header: Header{TTL: 9, Proto: 6, Src: MustAddr("1.1.1.1"), Dst: MustAddr("2.2.2.2")}, Payload: []byte("x")}
	buf, _ := p.Marshal()

	for _, tc := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"short", func(b []byte) []byte { return b[:10] }},
		{"version", func(b []byte) []byte { b[0] = 0x65; return b }},
		{"hlen", func(b []byte) []byte { b[0] = 0x44; return b }},
		{"checksum", func(b []byte) []byte { b[8]++; return b }},
		{"total-too-big", func(b []byte) []byte { b[3] = 200; return b }},
	} {
		mut := tc.corrupt(append([]byte(nil), buf...))
		if _, err := Unmarshal(mut); err == nil {
			t.Fatalf("%s: Unmarshal accepted corrupt packet", tc.name)
		}
	}
}

func TestUnmarshalIgnoresTrailingLinkPadding(t *testing.T) {
	p := &Packet{Header: Header{TTL: 5, Proto: 17, Src: MustAddr("1.1.1.1"), Dst: MustAddr("2.2.2.2")}, Payload: []byte("data")}
	buf, _ := p.Marshal()
	padded := append(buf, 0, 0, 0, 0) // Ethernet minimum-size padding
	q, err := Unmarshal(padded)
	if err != nil {
		t.Fatal(err)
	}
	if string(q.Payload) != "data" {
		t.Fatalf("payload = %q", q.Payload)
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(tos uint8, id uint16, ttl uint8, proto uint8, src, dst [4]byte, payload []byte, df bool) bool {
		p := &Packet{
			Header:  Header{TOS: tos, ID: id, TTL: ttl, Proto: proto, Src: src, Dst: dst, DF: df},
			Payload: payload,
		}
		buf, err := p.Marshal()
		if err != nil {
			return len(payload) > MaxPacket-HeaderLen
		}
		q, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return q.TOS == tos && q.ID == id && q.TTL == ttl && q.Proto == proto &&
			q.Src == Addr(src) && q.Dst == Addr(dst) && q.DF == df &&
			bytes.Equal(q.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickChecksumDetectsWordErrors(t *testing.T) {
	f := func(data []byte, pos uint16, delta uint8) bool {
		if len(data) < 2 || delta == 0 {
			return true
		}
		if len(data)%2 == 1 {
			data = data[:len(data)-1]
		}
		// Append the correct checksum, then corrupt one byte.
		cs := Checksum(data)
		framed := append(append([]byte(nil), data...), byte(cs>>8), byte(cs))
		if Checksum(framed) != 0 {
			return false
		}
		i := int(pos) % len(framed)
		framed[i] += delta
		if framed[i] == byte(0) && delta == 255 {
			return true // 0x00 -> 0xFF flips can alias in ones-complement
		}
		// One's-complement arithmetic has two representations of zero,
		// so a byte change from 0x00->0xFF (or vice versa) within a
		// word can go undetected; all other single-byte changes must
		// be caught.
		old := framed[i] - delta
		if (old == 0x00 && framed[i] == 0xFF) || (old == 0xFF && framed[i] == 0x00) {
			return true
		}
		return Checksum(framed) != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketCloneIndependence(t *testing.T) {
	p := &Packet{Header: Header{Src: MustAddr("1.1.1.1")}, Payload: []byte{1, 2}}
	p.Options = []byte{1, 1, 0, 0}
	q := p.Clone()
	q.Payload[0] = 9
	q.Options[0] = 9
	if p.Payload[0] == 9 || p.Options[0] == 9 {
		t.Fatal("Clone shares storage")
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Header: Header{Src: MustAddr("1.1.1.1"), Dst: MustAddr("2.2.2.2"), Proto: 6, TTL: 30, ID: 7}, Payload: make([]byte, 5)}
	if got := p.String(); got != "ip 1.1.1.1>2.2.2.2 proto=6 ttl=30 id=7 len=5" {
		t.Fatalf("String() = %q", got)
	}
	p.MF = true
	p.FragOff = 2
	if got := p.String(); got != "ip 1.1.1.1>2.2.2.2 proto=6 ttl=30 id=7 len=5 frag=16 mf=true" {
		t.Fatalf("frag String() = %q", got)
	}
}

func TestMustAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddr should panic")
		}
	}()
	MustAddr("nope")
}
