package arp

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/sim"
)

func TestPacketRoundTripEthernet(t *testing.T) {
	p := &Packet{
		HType: HTypeEthernet, PType: EtherTypeIP, Op: OpRequest,
		SHA: []byte{1, 2, 3, 4, 5, 6}, SPA: ip.MustAddr("128.95.1.2"),
		THA: make([]byte, 6), TPA: ip.MustAddr("128.95.1.99"),
	}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.HType != p.HType || q.Op != p.Op || !bytes.Equal(q.SHA, p.SHA) ||
		q.SPA != p.SPA || q.TPA != p.TPA {
		t.Fatalf("round trip: %+v", q)
	}
}

func TestPacketRoundTripAX25(t *testing.T) {
	// AX.25 hardware addresses are 7 bytes (shifted callsign + SSID).
	sha := []byte{0x9C, 0x6E, 0x82, 0x96, 0xA4, 0x40, 0x00} // "N7AKR"
	p := &Packet{
		HType: HTypeAX25, PType: EtherTypeIP, Op: OpReply,
		SHA: sha, SPA: ip.MustAddr("44.24.0.5"),
		THA: make([]byte, 7), TPA: ip.MustAddr("44.24.0.28"),
	}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.HType != HTypeAX25 || len(q.SHA) != 7 || !bytes.Equal(q.SHA, sha) {
		t.Fatalf("ax25 round trip: %+v", q)
	}
}

func TestMarshalRejectsBadLengths(t *testing.T) {
	p := &Packet{SHA: []byte{1, 2}, THA: []byte{1, 2, 3}}
	if _, err := p.Marshal(); err == nil {
		t.Fatal("mismatched HA lengths accepted")
	}
	p = &Packet{}
	if _, err := p.Marshal(); err == nil {
		t.Fatal("empty HA accepted")
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("short packet accepted")
	}
	// Claim hlen 6 but truncate body.
	p := &Packet{HType: 1, PType: EtherTypeIP, Op: 1, SHA: make([]byte, 6), THA: make([]byte, 6)}
	buf, _ := p.Marshal()
	if _, err := Unmarshal(buf[:len(buf)-4]); err == nil {
		t.Fatal("truncated packet accepted")
	}
}

func TestQuickPacketRoundTrip(t *testing.T) {
	f := func(htype, op uint16, hlenRaw uint8, spa, tpa [4]byte, seed uint8) bool {
		hlen := int(hlenRaw)%16 + 1
		sha := make([]byte, hlen)
		tha := make([]byte, hlen)
		for i := range sha {
			sha[i] = seed + byte(i)
			tha[i] = seed ^ byte(i)
		}
		p := &Packet{HType: htype, PType: EtherTypeIP, Op: op, SHA: sha, SPA: spa, THA: tha, TPA: tpa}
		buf, err := p.Marshal()
		if err != nil {
			return false
		}
		q, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return q.HType == htype && q.Op == op && bytes.Equal(q.SHA, sha) &&
			bytes.Equal(q.THA, tha) && q.SPA == ip.Addr(spa) && q.TPA == ip.Addr(tpa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// resolverHarness wires two resolvers together as if on one link.
type resolverHarness struct {
	sched *sim.Scheduler
	a, b  *Resolver
	// deliveries records (resolver, hw, packet-id) triples.
	aDelivered, bDelivered []deliveredPkt
	lossy                  bool
}

type deliveredPkt struct {
	hw  []byte
	pkt *ip.Packet
}

func newResolverHarness(t *testing.T) *resolverHarness {
	h := &resolverHarness{sched: sim.NewScheduler(1)}
	h.a = NewResolver(h.sched, HTypeEthernet, []byte{0xAA, 0, 0, 0, 0, 1}, ip.MustAddr("10.0.0.1"))
	h.b = NewResolver(h.sched, HTypeEthernet, []byte{0xBB, 0, 0, 0, 0, 2}, ip.MustAddr("10.0.0.2"))
	h.a.SendPacket = func(p *Packet, dstHW []byte) {
		if h.lossy {
			return
		}
		pc := *p
		h.sched.After(time.Millisecond, func() { h.b.Input(&pc) })
	}
	h.b.SendPacket = func(p *Packet, dstHW []byte) {
		if h.lossy {
			return
		}
		pc := *p
		h.sched.After(time.Millisecond, func() { h.a.Input(&pc) })
	}
	h.a.Deliver = func(pkt *ip.Packet, hw []byte) {
		h.aDelivered = append(h.aDelivered, deliveredPkt{hw, pkt})
	}
	h.b.Deliver = func(pkt *ip.Packet, hw []byte) {
		h.bDelivered = append(h.bDelivered, deliveredPkt{hw, pkt})
	}
	return h
}

func testPkt(id uint16) *ip.Packet {
	return &ip.Packet{Header: ip.Header{ID: id, TTL: 30, Src: ip.MustAddr("10.0.0.1"), Dst: ip.MustAddr("10.0.0.2")}}
}

func TestResolveDeliversHeldPacket(t *testing.T) {
	h := newResolverHarness(t)
	h.a.Enqueue(testPkt(1), ip.MustAddr("10.0.0.2"))
	if len(h.aDelivered) != 0 {
		t.Fatal("delivered before resolution")
	}
	h.sched.RunFor(time.Second)
	if len(h.aDelivered) != 1 {
		t.Fatalf("delivered %d, want 1", len(h.aDelivered))
	}
	if !bytes.Equal(h.aDelivered[0].hw, h.b.MyHW) {
		t.Fatalf("resolved hw = %x", h.aDelivered[0].hw)
	}
	if h.a.Stats.Misses != 1 || h.a.Stats.Requests != 1 {
		t.Fatalf("stats = %+v", h.a.Stats)
	}
}

func TestCacheHitIsSynchronous(t *testing.T) {
	h := newResolverHarness(t)
	h.a.Enqueue(testPkt(1), ip.MustAddr("10.0.0.2"))
	h.sched.RunFor(time.Second)
	h.a.Enqueue(testPkt(2), ip.MustAddr("10.0.0.2"))
	if len(h.aDelivered) != 2 {
		t.Fatal("cache hit did not deliver synchronously")
	}
	if h.a.Stats.Hits != 1 {
		t.Fatalf("stats = %+v", h.a.Stats)
	}
}

func TestRequesterLearnsFromRequest(t *testing.T) {
	h := newResolverHarness(t)
	h.a.Enqueue(testPkt(1), ip.MustAddr("10.0.0.2"))
	h.sched.RunFor(time.Second)
	// b must now know a's address without asking (RFC 826 merge).
	if hw, ok := h.b.Lookup(ip.MustAddr("10.0.0.1")); !ok || !bytes.Equal(hw, h.a.MyHW) {
		t.Fatal("responder did not learn requester's mapping")
	}
}

func TestHoldQueueLimitDropsOldest(t *testing.T) {
	h := newResolverHarness(t)
	h.lossy = true // no replies will come
	h.a.MaxHold = 2
	h.a.Enqueue(testPkt(1), ip.MustAddr("10.0.0.2"))
	h.a.Enqueue(testPkt(2), ip.MustAddr("10.0.0.2"))
	h.a.Enqueue(testPkt(3), ip.MustAddr("10.0.0.2"))
	if h.a.Stats.HeldDrops != 1 {
		t.Fatalf("HeldDrops = %d, want 1", h.a.Stats.HeldDrops)
	}
	// Now let resolution succeed: only packets 2 and 3 must deliver.
	h.lossy = false
	h.sched.RunFor(5 * time.Second)
	if len(h.aDelivered) != 2 || h.aDelivered[0].pkt.ID != 2 || h.aDelivered[1].pkt.ID != 3 {
		t.Fatalf("delivered %v", h.aDelivered)
	}
}

func TestRequestRetriesThenGivesUp(t *testing.T) {
	h := newResolverHarness(t)
	h.lossy = true
	h.a.Enqueue(testPkt(1), ip.MustAddr("10.0.0.9")) // nobody home
	h.sched.RunFor(time.Minute)
	if h.a.Stats.Requests != maxRequests {
		t.Fatalf("requests = %d, want %d", h.a.Stats.Requests, maxRequests)
	}
	if h.a.Stats.HeldDrops != 1 {
		t.Fatalf("HeldDrops = %d, want 1", h.a.Stats.HeldDrops)
	}
	// A later attempt starts a fresh request cycle.
	h.a.Enqueue(testPkt(2), ip.MustAddr("10.0.0.9"))
	h.sched.RunFor(time.Minute)
	if h.a.Stats.Requests != 2*maxRequests {
		t.Fatalf("requests = %d, want %d after second cycle", h.a.Stats.Requests, 2*maxRequests)
	}
}

func TestCacheExpiry(t *testing.T) {
	h := newResolverHarness(t)
	h.a.CacheTTL = 10 * time.Second
	h.a.Enqueue(testPkt(1), ip.MustAddr("10.0.0.2"))
	h.sched.RunFor(time.Second)
	if _, ok := h.a.Lookup(ip.MustAddr("10.0.0.2")); !ok {
		t.Fatal("entry missing right after resolution")
	}
	h.sched.RunFor(11 * time.Second)
	if _, ok := h.a.Lookup(ip.MustAddr("10.0.0.2")); ok {
		t.Fatal("entry survived past TTL")
	}
	if h.a.Stats.Expired != 1 {
		t.Fatalf("Expired = %d", h.a.Stats.Expired)
	}
}

func TestStaticEntriesNeverExpireOrOverwrite(t *testing.T) {
	h := newResolverHarness(t)
	static := []byte{9, 9, 9, 9, 9, 9}
	h.a.AddStatic(ip.MustAddr("10.0.0.2"), static)
	h.sched.RunFor(time.Hour)
	hw, ok := h.a.Lookup(ip.MustAddr("10.0.0.2"))
	if !ok || !bytes.Equal(hw, static) {
		t.Fatal("static entry lost")
	}
	// A received ARP claiming a different mapping must not override.
	h.a.Input(&Packet{
		HType: HTypeEthernet, PType: EtherTypeIP, Op: OpReply,
		SHA: []byte{1, 1, 1, 1, 1, 1}, SPA: ip.MustAddr("10.0.0.2"),
		THA: h.a.MyHW, TPA: h.a.MyIP,
	})
	hw, _ = h.a.Lookup(ip.MustAddr("10.0.0.2"))
	if !bytes.Equal(hw, static) {
		t.Fatal("static entry overwritten by received ARP")
	}
}

func TestIgnoresForeignHTypeAndProto(t *testing.T) {
	h := newResolverHarness(t)
	h.b.Input(&Packet{HType: HTypeAX25, PType: EtherTypeIP, Op: OpRequest,
		SHA: make([]byte, 7), SPA: ip.MustAddr("10.0.0.1"), THA: make([]byte, 7), TPA: h.b.MyIP})
	h.b.Input(&Packet{HType: HTypeEthernet, PType: 0x86DD, Op: OpRequest,
		SHA: make([]byte, 6), SPA: ip.MustAddr("10.0.0.1"), THA: make([]byte, 6), TPA: h.b.MyIP})
	if h.b.CacheSize() != 0 || h.b.Stats.Replies != 0 {
		t.Fatal("foreign packets processed")
	}
}

func TestNotForMeOnlyRefreshesExisting(t *testing.T) {
	h := newResolverHarness(t)
	// b receives a request for someone else from an unknown sender:
	// must not create a cache entry (RFC 826: merge only if present).
	h.b.Input(&Packet{HType: HTypeEthernet, PType: EtherTypeIP, Op: OpRequest,
		SHA: h.a.MyHW, SPA: h.a.MyIP, THA: make([]byte, 6), TPA: ip.MustAddr("10.0.0.77")})
	if h.b.CacheSize() != 0 {
		t.Fatal("gratuitous entry created for bystander traffic")
	}
}

func TestFlushKeepsStatics(t *testing.T) {
	h := newResolverHarness(t)
	h.a.AddStatic(ip.MustAddr("10.0.0.3"), []byte{1, 2, 3, 4, 5, 6})
	h.a.Enqueue(testPkt(1), ip.MustAddr("10.0.0.2"))
	h.sched.RunFor(time.Second)
	if h.a.CacheSize() != 2 {
		t.Fatalf("cache size = %d", h.a.CacheSize())
	}
	h.a.Flush()
	if h.a.CacheSize() != 1 {
		t.Fatal("Flush removed static entry or kept dynamic")
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Op: OpRequest, SPA: ip.MustAddr("1.1.1.1"), TPA: ip.MustAddr("2.2.2.2")}
	if p.String() != "arp request who-has 2.2.2.2 tell 1.1.1.1" {
		t.Fatalf("String() = %q", p.String())
	}
}

// TestHeldDropsAreTraced: each datagram the hold queue drops reaches
// Trace, named by why it died — evicted by a newer hold ("overflow"),
// or given up with its unanswered requests ("unresolved") — so every
// HeldDrops count has a traced datagram behind it.
func TestHeldDropsAreTraced(t *testing.T) {
	h := newResolverHarness(t)
	h.lossy = true
	h.a.MaxHold = 2
	var events []string
	h.a.Trace = func(event string, pkt *ip.Packet) {
		events = append(events, fmt.Sprintf("%s %d", event, pkt.ID))
	}
	for id := uint16(1); id <= 4; id++ {
		h.a.Enqueue(testPkt(id), ip.MustAddr("10.0.0.9"))
	}
	h.sched.RunFor(time.Minute)
	want := []string{
		"hold 1", "hold 2", "overflow 1", "hold 3", "overflow 2", "hold 4",
		"unresolved 3", "unresolved 4",
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("traced %v, want %v", events, want)
	}
	if h.a.Stats.HeldDrops != 4 {
		t.Fatalf("HeldDrops = %d, want 4", h.a.Stats.HeldDrops)
	}
}
