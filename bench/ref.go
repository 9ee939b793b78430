package bench

import (
	"sort"
	"time"
)

// The reference kernel measures how fast the machine is running right
// now. On a shared host, co-tenant load slows this benchmark's vCPUs
// by up to 70% for minutes at a time, far more than any bound a
// regression gate could use. The kernel is a fixed binary-heap
// workload, the scheduler's core operation, on a preallocated 2 MB heap
// reset from a 2 MB copy: it allocates nothing, writes no pointers, and
// shares no code with the simulator, so no change to the simulator
// moves its time.
// Timing it beside every slice of the window and scaling the slice by
// it cancels most of the host's drift.

type refItem struct{ when, seq int64 }

// refStart is a min-heap ordered by (when, seq), like the scheduler's
// event queue; every kernel run starts from a copy of it in refHeap, so
// every run does identical work.
var refStart, refHeap []refItem

// refBytes is the kernel's share of the live heap, which heap_live_mb
// leaves out.
const refBytes = 2 * refItems * 16

const (
	refItems = 1 << 17
	refOps   = 40000
	// refNominal is the kernel's time on the reference machine (2-core
	// Xeon, Go 1.24). It only sets the scale of normalized rates and
	// must never change, or every recorded baseline would shift.
	refNominal = 5 * time.Millisecond
)

func init() {
	refStart = make([]refItem, refItems)
	refHeap = make([]refItem, refItems)
	x := uint64(88172645463325252)
	for i := range refStart {
		x = xorshift(x)
		refStart[i] = refItem{int64(x >> 40), int64(i)}
	}
	sort.Slice(refStart, func(i, j int) bool { return refLess(refStart[i], refStart[j]) })
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func refLess(a, b refItem) bool { return a.when < b.when || (a.when == b.when && a.seq < b.seq) }

// refKernel runs the reference workload once and returns its wall
// time: refOps times, the root is pushed later and sifted down, as a
// pop followed by a push would.
func refKernel() time.Duration {
	t0 := time.Now()
	h := refHeap
	copy(h, refStart)
	n := len(h)
	x := uint64(999)
	for k := 0; k < refOps; k++ {
		x = xorshift(x)
		h[0] = refItem{h[0].when + int64(x>>40), int64(k)}
		for i := 0; ; {
			l := 2*i + 1
			if l >= n {
				break
			}
			j := l
			if r := l + 1; r < n && refLess(h[r], h[l]) {
				j = r
			}
			if !refLess(h[j], h[i]) {
				break
			}
			h[i], h[j] = h[j], h[i]
			i = j
		}
	}
	return time.Since(t0)
}
