//go:build poolcheck

package pool

import "testing"

func TestPoolcheckPoisonsAndCatchesDoubleReturn(t *testing.T) {
	var l List[[]byte]
	b := Copy(&l, []byte("abc"))
	l.Put(b)
	for i, c := range b[:cap(b)] {
		if c != poison {
			t.Fatalf("byte %d of a returned buffer is %#x, want poison", i, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second Put of one buffer did not panic")
		}
	}()
	l.Put(b)
}
