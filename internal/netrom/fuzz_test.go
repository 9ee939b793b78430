package netrom

import (
	"reflect"
	"testing"

	"packetradio/internal/ax25"
)

// spaceNUL is a with its NUL callsign bytes turned to spaces: an
// address field encodes a NUL as a space (the zero Addr goes on the
// wire blank), so that is what a decoded address survives a round trip
// as — the convention ax25's FuzzHeard allows for too.
func spaceNUL(a ax25.Addr) ax25.Addr {
	for i, c := range a.Call {
		if c == 0 {
			a.Call[i] = ' '
		}
	}
	return a
}

// FuzzNetromUnmarshal feeds Unmarshal arbitrary bytes, as an inter-node
// frame off the air may carry: it must return an error or a packet and
// never panic, and a packet it returns must survive Marshal and
// Unmarshal unchanged, NUL callsign bytes aside (spaceNUL). Bytes do
// not round-trip exactly: an address field's spare bits are not kept.
func FuzzNetromUnmarshal(f *testing.F) {
	a, b := ax25.MustAddr("N7AKR-1"), ax25.MustAddr("KB7DZ")
	for _, p := range []*Packet{
		{Origin: a, Dest: b, TTL: DefaultTTL, CircuitIdx: 1, CircuitID: 2, Op: OpConnReq, Window: 4, User: a, Node: b},
		{Origin: a, Dest: b, TTL: 3, Op: OpConnAck | FlagChoke, Window: 2},
		{Origin: b, Dest: a, TTL: 1, TxSeq: 5, RxSeq: 6, Op: OpInfo, Info: []byte("hello")},
		{Origin: b, Dest: a, Op: OpDatagram, Proto: 0xCC, Info: []byte{0x45, 0, 0, 20}},
		{Origin: a, Dest: a, Op: OpDiscReq},
	} {
		buf := p.Marshal()
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, err := Unmarshal(buf)
		if err != nil {
			return
		}
		q, err := Unmarshal(p.Marshal())
		if err != nil {
			t.Fatalf("Unmarshal(Marshal(%v)): %v", p, err)
		}
		for _, pk := range []*Packet{p, q} {
			pk.Origin, pk.Dest = spaceNUL(pk.Origin), spaceNUL(pk.Dest)
			pk.User, pk.Node = spaceNUL(pk.User), spaceNUL(pk.Node)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the packet:\n got  %+v\n want %+v", q, p)
		}
	})
}

// FuzzNetromUnmarshalNodes does the same for NODES broadcasts, whose
// entries every node on the channel parses.
func FuzzNetromUnmarshalNodes(f *testing.F) {
	nb := &NodesBroadcast{Mnemonic: "SEA", Entries: []NodesEntry{
		{Dest: ax25.MustAddr("N7AKR-1"), Alias: "UWGW", BestNeighbor: ax25.MustAddr("KB7DZ"), Quality: 192},
		{Dest: ax25.MustAddr("W7TAC"), Alias: "TACOMA", BestNeighbor: ax25.MustAddr("N7AKR-1"), Quality: 0},
	}}
	buf := nb.Marshal()
	f.Add(buf)
	f.Add(buf[:len(buf)-1])
	f.Add(buf[:7])
	f.Add([]byte{nodesSignature})
	f.Fuzz(func(t *testing.T, buf []byte) {
		n, err := UnmarshalNodes(buf)
		if err != nil {
			return
		}
		m, err := UnmarshalNodes(n.Marshal())
		if err != nil {
			t.Fatalf("UnmarshalNodes(Marshal(%+v)): %v", n, err)
		}
		for i := range n.Entries {
			e := &n.Entries[i]
			e.Dest, e.BestNeighbor = spaceNUL(e.Dest), spaceNUL(e.BestNeighbor)
		}
		if !reflect.DeepEqual(n, m) {
			t.Fatalf("round trip changed the broadcast:\n got  %+v\n want %+v", m, n)
		}
	})
}
