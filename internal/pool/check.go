//go:build poolcheck

package pool

import (
	"fmt"
	"reflect"
)

// Checking reports a poolcheck build, whose checks allocate, so the
// allocation gates do not hold there.
const Checking = true

// check records which items are on the list, by address.
type check struct{ on map[uintptr]bool }

// key is x's address: the pointer, or the slice's first element. A
// slice with no capacity has none and is not tracked.
func key(x any) (uintptr, bool) {
	v := reflect.ValueOf(x)
	switch v.Kind() {
	case reflect.Slice:
		if v.Cap() == 0 {
			return 0, false
		}
		return v.Pointer(), true
	case reflect.Pointer:
		return v.Pointer(), !v.IsNil()
	}
	return 0, false
}

func (c *check) taken(x any) {
	if k, ok := key(x); ok {
		delete(c.on, k)
	}
}

func (c *check) returned(x any) {
	if b, ok := x.([]byte); ok {
		b = b[:cap(b)]
		for i := range b {
			b[i] = poison
		}
	}
	k, ok := key(x)
	if !ok {
		return
	}
	if c.on[k] {
		panic(fmt.Sprintf("pool: %T at %#x given back twice", x, k))
	}
	if c.on == nil {
		c.on = make(map[uintptr]bool)
	}
	c.on[k] = true
}
