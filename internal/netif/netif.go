// Package netif is the miniature equivalent of the 4.3BSD/Ultrix
// network-interface layer the paper's driver plugs into: the if_net
// vtable ("pointers to the procedures used to initialize the interface,
// send packets, change parameters, and perform other operations"),
// bounded input queues with drop accounting, and per-interface
// statistics.
package netif

import (
	"fmt"

	"packetradio/internal/ip"
)

// Stats mirrors the classic ifnet counters.
type Stats struct {
	Ipackets uint64 // packets received
	Opackets uint64 // packets sent
	Ierrors  uint64 // input errors (bad frames, CRC, decode)
	Oerrors  uint64 // output errors
	Iqdrops  uint64 // input-queue overflows
	Ibytes   uint64
	Obytes   uint64
	NoProto  uint64 // packets for an unsupported protocol
}

// Interface is the contract every driver satisfies — the if_net
// structure of the paper's §2.2. Output is handed the next-hop IP
// address, not a link address: "ARP lookup occurs at layer two, and
// thus, gets called inside either the Ethernet driver, or the AX.25
// driver."
type Interface interface {
	// Name is the interface name, e.g. "qe0" or "pr0".
	Name() string
	// MTU is the largest IP datagram the link accepts.
	MTU() int
	// Up reports whether the interface is initialized and running.
	Up() bool
	// Init brings the interface up (if_init).
	Init() error
	// Output queues one datagram for transmission to nextHop, which is
	// either the final destination (on-link) or a gateway address. The
	// driver performs its own link-address resolution.
	Output(pkt *ip.Packet, nextHop ip.Addr) error
	// Stats exposes the interface counters.
	Stats() *Stats
}

// ErrDown reports output on a down interface.
type ErrDown struct{ If string }

func (e *ErrDown) Error() string { return fmt.Sprintf("netif: %s is down", e.If) }

// DefaultQueueLimit is IFQ_MAXLEN from the BSD lineage.
const DefaultQueueLimit = 50

// Queue is a bounded packet queue with drop-on-overflow semantics — the
// BSD ifqueue the paper's driver feeds: "the driver then adds the
// encapsulated IP packet to the queue of incoming IP packets". When the
// gateway falls behind (E2), packets drop here and are counted.
type Queue[T any] struct {
	limit int
	// items[head:] are queued, oldest first. Dequeue zeroes the slot
	// it vacates, and the backing array is reused once the queue
	// drains, so a queue that keeps up never allocates.
	items []T
	head  int
	Drops uint64
	Peak  int
}

// NewQueue builds a queue holding at most limit items (0 means
// DefaultQueueLimit).
func NewQueue[T any](limit int) *Queue[T] {
	if limit <= 0 {
		limit = DefaultQueueLimit
	}
	return &Queue[T]{limit: limit}
}

// Enqueue appends x, returning false (and counting a drop) when full.
func (q *Queue[T]) Enqueue(x T) bool {
	if q.Len() >= q.limit {
		q.Drops++
		return false
	}
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Slide a backlog to the front of its array instead of growing
		// past the dead slots before it.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, x)
	if q.Len() > q.Peak {
		q.Peak = q.Len()
	}
	return true
}

// Dequeue removes and returns the head.
func (q *Queue[T]) Dequeue() (T, bool) {
	var zero T
	if q.Len() == 0 {
		return zero, false
	}
	x := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return x, true
}

// Len reports queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Limit reports the capacity.
func (q *Queue[T]) Limit() int { return q.limit }
