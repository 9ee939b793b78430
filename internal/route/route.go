// Package route implements the classful IP routing table of the era:
// host routes, network routes with class-derived or explicit masks, and
// a default gateway — the structure whose single-class-A-route
// limitation creates the paper's §4.2 problem ("All packets destined
// for AMPRnet ... must pass through a single gateway").
package route

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"packetradio/internal/ip"
)

// Flags describe a route.
type Flags uint8

const (
	FlagUp      Flags = 1 << iota // usable
	FlagGateway                   // next hop is a gateway, not on-link
	FlagHost                      // host route (mask /32)
	FlagStatic                    // manually configured
	FlagDynamic                   // installed by a routing daemon (RSPF)
)

func (f Flags) String() string {
	var b strings.Builder
	for _, fl := range []struct {
		bit Flags
		ch  byte
	}{{FlagUp, 'U'}, {FlagGateway, 'G'}, {FlagHost, 'H'}, {FlagStatic, 'S'}, {FlagDynamic, 'D'}} {
		if f&fl.bit != 0 {
			b.WriteByte(fl.ch)
		}
	}
	return b.String()
}

// Entry is one route.
type Entry struct {
	Dest    ip.Addr // network or host address (masked)
	Mask    ip.Mask
	Gateway ip.Addr // meaningful when FlagGateway set
	IfName  string  // outgoing interface
	Flags   Flags
	Owner   string // which daemon installed it ("" for static/kernel)
	Metric  uint32 // daemon path cost (0 for static routes)
	Use     uint64 // packets routed via this entry
}

func (e *Entry) String() string {
	gw := "direct"
	if e.Flags&FlagGateway != 0 {
		gw = e.Gateway.String()
	}
	return fmt.Sprintf("%s/%d via %s dev %s %s", e.Dest, e.Mask.Bits(), gw, e.IfName, e.Flags)
}

// ErrNoRoute reports an unroutable destination (ENETUNREACH).
var ErrNoRoute = errors.New("route: no route to host")

// Table is a routing table. Entries are kept sorted most-specific
// first so Lookup is a linear longest-prefix match — plenty for the
// handful of routes a 1988 gateway carried.
type Table struct {
	entries []*Entry
}

// New returns an empty table.
func New() *Table { return &Table{} }

// AddNet installs a network route. A zero mask derives the classful
// default from dest.
func (t *Table) AddNet(dest ip.Addr, mask ip.Mask, gw ip.Addr, ifName string) *Entry {
	if mask == (ip.Mask{}) {
		mask = ip.ClassMask(dest)
	}
	flags := FlagUp | FlagStatic
	if !gw.IsZero() {
		flags |= FlagGateway
	}
	e := &Entry{Dest: mask.Apply(dest), Mask: mask, Gateway: gw, IfName: ifName, Flags: flags}
	t.insert(e)
	return e
}

// AddHost installs a host route.
func (t *Table) AddHost(dest ip.Addr, gw ip.Addr, ifName string) *Entry {
	flags := FlagUp | FlagStatic | FlagHost
	if !gw.IsZero() {
		flags |= FlagGateway
	}
	e := &Entry{Dest: dest, Mask: ip.MaskHost, Gateway: gw, IfName: ifName, Flags: flags}
	t.insert(e)
	return e
}

// AddDefault installs the default route.
func (t *Table) AddDefault(gw ip.Addr, ifName string) *Entry {
	e := &Entry{Gateway: gw, IfName: ifName, Flags: FlagUp | FlagStatic | FlagGateway}
	t.insert(e)
	return e
}

// insert installs e, replacing an existing route to the same
// destination in place; a new route goes after the last entry at least
// as specific, which keeps the table sorted most specific first and,
// within one prefix length, in insertion order.
func (t *Table) insert(e *Entry) {
	for i, old := range t.entries {
		if old.Dest == e.Dest && old.Mask == e.Mask {
			t.entries[i] = e
			return
		}
	}
	bits := e.Mask.Bits()
	i := len(t.entries)
	for i > 0 && t.entries[i-1].Mask.Bits() < bits {
		i--
	}
	t.entries = slices.Insert(t.entries, i, e)
}

// Delete removes the route to dest with the given mask, reporting
// whether one existed.
func (t *Table) Delete(dest ip.Addr, mask ip.Mask) bool {
	for i, e := range t.entries {
		if e.Dest == mask.Apply(dest) && e.Mask == mask {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			return true
		}
	}
	return false
}

// WithdrawOwner removes every route installed by owner, returning how
// many were removed. Static routes (empty owner) are never touched by
// a daemon's withdrawal.
func (t *Table) WithdrawOwner(owner string) int {
	if owner == "" {
		return 0
	}
	kept := t.entries[:0]
	n := 0
	for _, e := range t.entries {
		if e.Owner == owner {
			n++
			continue
		}
		kept = append(kept, e)
	}
	t.entries = kept
	return n
}

// ReplaceOwned atomically swaps the full set of routes owned by owner:
// every existing route with that owner is removed and entries (which
// are tagged with owner and FlagDynamic) are installed in one step, so
// no Lookup ever observes a half-updated table. The Use counter of a
// route that survives the swap unchanged (same destination, gateway
// and interface) is preserved. Returns the number installed.
func (t *Table) ReplaceOwned(owner string, entries []*Entry) int {
	if owner == "" {
		panic("route: ReplaceOwned requires a non-empty owner")
	}
	old := make(map[[2]ip.Addr]*Entry) // (dest, mask-as-addr) -> entry
	for _, e := range t.entries {
		if e.Owner == owner {
			old[[2]ip.Addr{e.Dest, ip.Addr(e.Mask)}] = e
		}
	}
	t.WithdrawOwner(owner)
	installed := 0
	for _, e := range entries {
		e.Owner = owner
		e.Flags |= FlagUp | FlagDynamic
		e.Dest = e.Mask.Apply(e.Dest)
		if ex := t.find(e.Dest, e.Mask); ex != nil && ex.Owner != owner {
			// Never clobber a route someone else (static config or
			// another daemon) installed for the same destination.
			continue
		}
		installed++
		if prev, ok := old[[2]ip.Addr{e.Dest, ip.Addr(e.Mask)}]; ok &&
			prev.Gateway == e.Gateway && prev.IfName == e.IfName {
			e.Use = prev.Use
		}
		t.insert(e)
	}
	return installed
}

// find returns the entry exactly matching dest/mask, if any.
func (t *Table) find(dest ip.Addr, mask ip.Mask) *Entry {
	for _, e := range t.entries {
		if e.Dest == dest && e.Mask == mask {
			return e
		}
	}
	return nil
}

// OwnedBy returns the routes installed by owner, most specific first.
func (t *Table) OwnedBy(owner string) []*Entry {
	var out []*Entry
	for _, e := range t.entries {
		if e.Owner == owner {
			out = append(out, e)
		}
	}
	return out
}

// Lookup finds the most specific usable route for dst.
func (t *Table) Lookup(dst ip.Addr) (*Entry, error) {
	for _, e := range t.entries {
		if e.Flags&FlagUp == 0 {
			continue
		}
		if e.Mask.Apply(dst) == e.Dest {
			e.Use++
			return e, nil
		}
	}
	return nil, ErrNoRoute
}

// Entries returns the table contents, most specific first.
func (t *Table) Entries() []*Entry { return t.entries }

// String renders a netstat -r style dump.
func (t *Table) String() string {
	var b strings.Builder
	for _, e := range t.entries {
		fmt.Fprintln(&b, e)
	}
	return b.String()
}
