package netif

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int](10)
	for i := 0; i < 5; i++ {
		if !q.Enqueue(i) {
			t.Fatalf("Enqueue(%d) failed", i)
		}
	}
	for i := 0; i < 5; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("Dequeue = %d,%v want %d,true", v, ok, i)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("Dequeue on empty succeeded")
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	q := NewQueue[int](3)
	for i := 0; i < 5; i++ {
		q.Enqueue(i)
	}
	if q.Len() != 3 || q.Drops != 2 {
		t.Fatalf("len=%d drops=%d, want 3/2", q.Len(), q.Drops)
	}
	// The oldest packets are kept (tail drop, like IF_DROP).
	v, _ := q.Dequeue()
	if v != 0 {
		t.Fatalf("head = %d, want 0 (tail drop)", v)
	}
}

func TestQueuePeakTracksHighWater(t *testing.T) {
	q := NewQueue[int](10)
	q.Enqueue(1)
	q.Enqueue(2)
	q.Dequeue()
	q.Enqueue(3)
	q.Enqueue(4)
	if q.Peak != 3 {
		t.Fatalf("Peak = %d, want 3", q.Peak)
	}
}

func TestQueueDefaultLimit(t *testing.T) {
	q := NewQueue[int](0)
	if q.Limit() != DefaultQueueLimit {
		t.Fatalf("Limit = %d", q.Limit())
	}
}

func TestQuickQueueNeverExceedsLimit(t *testing.T) {
	f := func(ops []bool, limit uint8) bool {
		lim := int(limit%20) + 1
		q := NewQueue[int](lim)
		n := 0
		for i, enq := range ops {
			if enq {
				if q.Enqueue(i) {
					n++
				}
			} else {
				if _, ok := q.Dequeue(); ok {
					n--
				}
			}
			if q.Len() != n || q.Len() > lim {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueReusesBackingArray pins the no-allocation steady state: a
// queue that drains reuses its array, a standing backlog slides down
// instead of growing, FIFO order survives both, and every vacated
// slot is zeroed so the queue keeps nothing it no longer holds alive.
func TestQueueReusesBackingArray(t *testing.T) {
	q := NewQueue[*int](4)
	v := new(int)
	q.Enqueue(v)
	q.Dequeue()
	if a := testing.AllocsPerRun(100, func() {
		q.Enqueue(v)
		q.Enqueue(v)
		q.Dequeue()
		q.Dequeue()
	}); a != 0 {
		t.Fatalf("drained queue allocates %.1f objects per cycle, want 0", a)
	}

	b := NewQueue[int](3)
	next, want := 1, 1 // 0 is the zero value vacated slots must hold
	for i := 0; i < 1000; i++ {
		for b.Len() < 3 {
			b.Enqueue(next)
			next++
		}
		got, _ := b.Dequeue()
		if got != want {
			t.Fatalf("dequeue %d = %d, want %d", i, got, want)
		}
		want++
	}
	if cap(b.items) > 8 {
		t.Fatalf("standing backlog of 3 grew the array to %d slots", cap(b.items))
	}
	for i := 0; i < b.head; i++ {
		if b.items[i] != 0 {
			t.Fatalf("vacated slot %d still holds %d", i, b.items[i])
		}
	}
}

func TestErrDown(t *testing.T) {
	err := &ErrDown{If: "pr0"}
	if err.Error() != "netif: pr0 is down" {
		t.Fatalf("Error() = %q", err.Error())
	}
}
