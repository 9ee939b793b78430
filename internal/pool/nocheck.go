//go:build !poolcheck

package pool

// Checking reports a poolcheck build.
const Checking = false

// check is empty outside poolcheck builds, and its hooks compile away.
type check struct{}

func (*check) taken(any)    {}
func (*check) returned(any) {}
