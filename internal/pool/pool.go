// Package pool is the free list every owner of reusable simulation
// storage keeps: the radio channel's on-air frames and transmissions,
// the Ethernet segment's frames and receptions, the TNC's and the
// driver's queued bytes, and RDM's in-flight messages (DESIGN.md §3b,
// "Copy once per hop"). As the paper's driver takes each mbuf off the
// kernel's free list and puts it back where the packet is dropped, an
// owner takes an item with Get and gives it back with Put at the one
// point where the model lets go of it.
//
// A list starts empty and grows on demand: Get on an empty list
// reports false and the caller makes a new item, which joins the list
// on its first Put. Nothing is allocated ahead, there is no cap, and
// no size class: a byte buffer keeps whatever capacity it grew to.
//
// Built with the poolcheck tag, Put overwrites every byte buffer it is
// given with a poison byte and panics when an item is given back
// twice, so a reader that holds bytes past their return point reads
// poison, and the golden files and digests show it.
package pool

// poison is the byte a poolcheck build writes over a returned buffer.
const poison = 0xA5

// List is a free list of T. The zero value is an empty list. A list
// belongs to one owner on one goroutine.
type List[T any] struct {
	free []T
	check
}

// Get takes an item off the list. ok is false when the list is empty;
// x is then the zero value and the caller makes a new item.
func (l *List[T]) Get() (x T, ok bool) {
	n := len(l.free)
	if n == 0 {
		return x, false
	}
	x = l.free[n-1]
	var zero T
	l.free[n-1] = zero
	l.free = l.free[:n-1]
	l.taken(x)
	return x, true
}

// Put gives x back for a later Get. The caller must hold no other
// reference to x that it will use again.
func (l *List[T]) Put(x T) {
	l.returned(x)
	l.free = append(l.free, x)
}

// Len reports the items on the list.
func (l *List[T]) Len() int { return len(l.free) }

// Copy returns a buffer from l holding a copy of p.
func Copy(l *List[[]byte], p []byte) []byte {
	b, _ := l.Get()
	return append(b[:0], p...)
}
