package pool

import "testing"

func TestListGrowsOnDemand(t *testing.T) {
	var l List[*int]
	if _, ok := l.Get(); ok {
		t.Fatal("a new list handed out an item")
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if x, ok := l.Get(); !ok || x != b {
		t.Fatalf("Get = %p, %v; want the last item put, %p", x, ok, b)
	}
	if x, ok := l.Get(); !ok || x != a {
		t.Fatalf("Get = %p, %v; want %p", x, ok, a)
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d after taking everything", l.Len())
	}
}

func TestCopyReusesBuffers(t *testing.T) {
	var l List[[]byte]
	b := Copy(&l, []byte("hello"))
	if string(b) != "hello" {
		t.Fatalf("Copy = %q", b)
	}
	l.Put(b)
	if Checking {
		return // the checks allocate
	}
	if allocs := testing.AllocsPerRun(100, func() { l.Put(Copy(&l, []byte("hi"))) }); allocs != 0 {
		t.Fatalf("a warm Copy allocates %.0f objects", allocs)
	}
}
