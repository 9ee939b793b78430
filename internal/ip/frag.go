package ip

import (
	"errors"
	"sort"
	"time"
)

// Fragmentation and reassembly. The packet-radio interface MTU (256,
// from AX.25's conventional PACLEN) is far smaller than the Ethernet
// MTU (1500), so the gateway must fragment Internet-side datagrams
// before encapsulating them in AX.25 UI frames, and end hosts must
// reassemble.

// ErrFragmentDF reports a datagram that needs fragmentation but has the
// don't-fragment flag set.
var ErrFragmentDF = errors.New("ip: fragmentation needed but DF set")

// Fragment splits p into fragments whose total length fits mtu. If p
// already fits, it is returned unchanged as the single element.
func Fragment(p *Packet, mtu int) ([]*Packet, error) {
	if p.Len() <= mtu {
		return []*Packet{p}, nil
	}
	hlen := HeaderLen + len(p.Options)
	if p.DF {
		return nil, ErrFragmentDF
	}
	// Payload bytes per fragment: multiple of 8, at least 8.
	chunk := (mtu - hlen) &^ 7
	if chunk < 8 {
		return nil, errors.New("ip: mtu too small to fragment")
	}
	var frags []*Packet
	payload := p.Payload
	off := int(p.FragOff) * 8
	first := true
	for len(payload) > 0 {
		n := chunk
		last := false
		if n >= len(payload) {
			n = len(payload)
			last = true
		}
		f := *p
		f.Payload = payload[:n]
		f.FragOff = uint16(off / 8)
		f.MF = p.MF || !last
		if !first {
			// Options are carried only on the first fragment (we model
			// only uncopied options, the common case in 1988 stacks).
			f.Options = nil
		}
		frags = append(frags, &f)
		payload = payload[n:]
		off += n
		first = false
	}
	return frags, nil
}

// reassKey identifies a datagram being reassembled (RFC 791 tuple).
type reassKey struct {
	src, dst Addr
	proto    uint8
	id       uint16
}

type reassEntry struct {
	frags    []*Packet
	deadline time.Duration // sim time by which reassembly must finish
}

// ReassemblyTimeout is how long a partly reassembled datagram waits
// for its missing fragments: the classic ip_reass TTL.
const ReassemblyTimeout = 30 * time.Second

// Reassembler reassembles fragmented datagrams. It is clock-agnostic:
// callers pass the current simulation time to Add and Expire.
type Reassembler struct {
	pending map[reassKey]*reassEntry

	// Stats.
	Reassembled uint64
	Expired     uint64
	Fragments   uint64
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{pending: make(map[reassKey]*reassEntry)}
}

// Add offers one fragment. When the datagram is complete, it is
// returned with Payload joined and fragment fields cleared.
func (r *Reassembler) Add(p *Packet, now time.Duration) *Packet {
	if !p.MF && p.FragOff == 0 {
		return p // not a fragment
	}
	r.Fragments++
	key := reassKey{p.Src, p.Dst, p.Proto, p.ID}
	e := r.pending[key]
	if e == nil {
		e = &reassEntry{deadline: now + ReassemblyTimeout}
		r.pending[key] = e
	}
	e.frags = append(e.frags, p)

	// Check completeness: sort by offset, require contiguity and a
	// final fragment with MF clear.
	sort.Slice(e.frags, func(i, j int) bool { return e.frags[i].FragOff < e.frags[j].FragOff })
	if e.frags[0].FragOff != 0 {
		return nil
	}
	next := 0
	lastSeen := false
	for _, f := range e.frags {
		if int(f.FragOff)*8 > next {
			return nil // hole
		}
		end := int(f.FragOff)*8 + len(f.Payload)
		if end > next {
			next = end
		}
		if !f.MF {
			lastSeen = true
		}
	}
	if !lastSeen {
		return nil
	}
	// Complete: join.
	out := *e.frags[0]
	payload := make([]byte, next)
	for _, f := range e.frags {
		copy(payload[int(f.FragOff)*8:], f.Payload)
	}
	out.Payload = payload
	out.MF = false
	out.FragOff = 0
	delete(r.pending, key)
	r.Reassembled++
	return &out
}

// Expire drops reassembly state older than the timeout, returning how
// many datagrams were abandoned. Call periodically (the slow timeout).
func (r *Reassembler) Expire(now time.Duration) int {
	n := 0
	for k, e := range r.pending {
		if now >= e.deadline {
			delete(r.pending, k)
			r.Expired++
			n++
		}
	}
	return n
}

// PendingCount reports datagrams currently being reassembled.
func (r *Reassembler) PendingCount() int { return len(r.pending) }
