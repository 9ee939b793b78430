package route

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"packetradio/internal/ip"
)

// refTable is the table's former insertion, kept as the oracle for
// TestInsertKeepsOrder: append the new entry and stable-sort the whole
// table by prefix length. The other operations mirror Table's.
type refTable struct{ entries []*Entry }

func (t *refTable) insert(e *Entry) {
	for i, old := range t.entries {
		if old.Dest == e.Dest && old.Mask == e.Mask {
			t.entries[i] = e
			return
		}
	}
	t.entries = append(t.entries, e)
	sort.SliceStable(t.entries, func(i, j int) bool {
		return t.entries[i].Mask.Bits() > t.entries[j].Mask.Bits()
	})
}

func (t *refTable) delete(dest ip.Addr, mask ip.Mask) bool {
	for i, e := range t.entries {
		if e.Dest == mask.Apply(dest) && e.Mask == mask {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			return true
		}
	}
	return false
}

func (t *refTable) withdrawOwner(owner string) int {
	if owner == "" {
		return 0
	}
	var kept []*Entry
	for _, e := range t.entries {
		if e.Owner != owner {
			kept = append(kept, e)
		}
	}
	n := len(t.entries) - len(kept)
	t.entries = kept
	return n
}

func (t *refTable) replaceOwned(owner string, entries []*Entry) int {
	old := make(map[[2]ip.Addr]*Entry)
	for _, e := range t.entries {
		if e.Owner == owner {
			old[[2]ip.Addr{e.Dest, ip.Addr(e.Mask)}] = e
		}
	}
	t.withdrawOwner(owner)
	installed := 0
	for _, e := range entries {
		e.Owner = owner
		e.Flags |= FlagUp | FlagDynamic
		e.Dest = e.Mask.Apply(e.Dest)
		clobbers := false
		for _, ex := range t.entries {
			if ex.Dest == e.Dest && ex.Mask == e.Mask && ex.Owner != owner {
				clobbers = true
			}
		}
		if clobbers {
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

func (t *refTable) lookup(dst ip.Addr) *Entry {
	for _, e := range t.entries {
		if e.Flags&FlagUp != 0 && e.Mask.Apply(dst) == e.Dest {
			e.Use++
			return e
		}
	}
	return nil
}

// TestInsertKeepsOrder drives random sequences of every table
// operation, over prefix and non-contiguous masks, through Table and
// through refTable, and requires the same entries in the same order,
// and the same Lookup answers, after every step.
func TestInsertKeepsOrder(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		addr := func() ip.Addr {
			// A small address space, so routes collide, replace and
			// delete one another.
			return ip.AddrFrom(44, byte(rng.Intn(3)), byte(rng.Intn(3)), byte(rng.Intn(4)))
		}
		mask := func() ip.Mask {
			switch rng.Intn(4) {
			case 0: // non-contiguous
				return ip.Mask(ip.AddrFromUint32(rng.Uint32() | 0xff000000))
			case 1:
				return ip.Mask{} // the classful default, in AddNet
			default:
				return ip.Mask(ip.AddrFromUint32(^uint32(0) << (32 - rng.Intn(33))))
			}
		}
		gw := func() ip.Addr { return ip.AddrFrom(10, 0, 0, byte(rng.Intn(3))) }
		owners := []string{"", "rspf", "other"}

		got, want := New(), &refTable{}
		for step := 0; step < 60; step++ {
			var op string
			switch k := rng.Intn(10); {
			case k < 3:
				d, m, g := addr(), mask(), gw()
				op = fmt.Sprintf("AddNet(%v, %v, %v)", d, m, g)
				got.AddNet(d, m, g, "if0")
				if m == (ip.Mask{}) {
					m = ip.ClassMask(d)
				}
				want.insert(&Entry{Dest: m.Apply(d), Mask: m, Gateway: g, IfName: "if0", Flags: FlagUp | FlagStatic | FlagGateway})
			case k < 5:
				d, g := addr(), gw()
				op = fmt.Sprintf("AddHost(%v, %v)", d, g)
				got.AddHost(d, g, "if1")
				want.insert(&Entry{Dest: d, Mask: ip.MaskHost, Gateway: g, IfName: "if1", Flags: FlagUp | FlagStatic | FlagHost | FlagGateway})
			case k < 6:
				g := gw()
				op = fmt.Sprintf("AddDefault(%v)", g)
				got.AddDefault(g, "if2")
				want.insert(&Entry{Gateway: g, IfName: "if2", Flags: FlagUp | FlagStatic | FlagGateway})
			case k < 7:
				d, m := addr(), mask()
				if es := want.entries; len(es) > 0 && rng.Intn(2) == 0 {
					e := es[rng.Intn(len(es))]
					d, m = e.Dest, e.Mask
				}
				op = fmt.Sprintf("Delete(%v, %v)", d, m)
				if g, w := got.Delete(d, m), want.delete(d, m); g != w {
					t.Fatalf("seed %d step %d: %s = %v, want %v", seed, step, op, g, w)
				}
			case k < 9:
				owner := owners[1+rng.Intn(2)]
				n := rng.Intn(5)
				var ge, we []*Entry
				for i := 0; i < n; i++ {
					d, m, g := addr(), mask(), gw()
					if m == (ip.Mask{}) {
						m = ip.MaskHost
					}
					ge = append(ge, &Entry{Dest: d, Mask: m, Gateway: g, IfName: "if3", Flags: FlagGateway, Metric: uint32(i)})
					we = append(we, &Entry{Dest: d, Mask: m, Gateway: g, IfName: "if3", Flags: FlagGateway, Metric: uint32(i)})
				}
				op = fmt.Sprintf("ReplaceOwned(%q, %d entries)", owner, n)
				if g, w := got.ReplaceOwned(owner, ge), want.replaceOwned(owner, we); g != w {
					t.Fatalf("seed %d step %d: %s = %d, want %d", seed, step, op, g, w)
				}
			default:
				owner := owners[rng.Intn(3)]
				op = fmt.Sprintf("WithdrawOwner(%q)", owner)
				if g, w := got.WithdrawOwner(owner), want.withdrawOwner(owner); g != w {
					t.Fatalf("seed %d step %d: %s = %d, want %d", seed, step, op, g, w)
				}
			}
			for i := 0; i < 4; i++ {
				dst := addr()
				if rng.Intn(4) == 0 {
					dst = ip.AddrFrom(byte(rng.Intn(256)), 0, 0, 1)
				}
				g, err := got.Lookup(dst)
				w := want.lookup(dst)
				if (err != nil) != (w == nil) || (w != nil && g.String() != w.String()) {
					t.Fatalf("seed %d step %d after %s: Lookup(%v) = %v, %v; want %v", seed, step, op, dst, g, err, w)
				}
			}
			ge := got.Entries()
			if len(ge) != len(want.entries) {
				t.Fatalf("seed %d step %d after %s: %d entries, want %d", seed, step, op, len(ge), len(want.entries))
			}
			for i, g := range ge {
				if w := want.entries[i]; *g != *w {
					t.Fatalf("seed %d step %d after %s: entry %d is %+v, want %+v", seed, step, op, i, *g, *w)
				}
			}
		}
	}
}
