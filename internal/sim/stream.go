package sim

import "math/rand"

// Stream is one deterministic random stream: math/rand's sequence for
// a seed fixed when the stream is made, from a generator built at the
// first draw. A world seeds many streams (every transceiver's CSMA and
// noise streams, every serial line's corruption streams, every
// scheduler's Rand) and draws from about half of them, so the ~5 KB
// generator state is paid for only by the streams that are drawn. The
// zero Stream draws the sequence for seed 0.
type Stream struct {
	seed int64
	r    *rand.Rand
}

// NewStream returns a stream for seed. It builds no generator.
func NewStream(seed int64) Stream { return Stream{seed: seed} }

// Rand returns the stream's generator, building it at the first call.
// It draws exactly what rand.New(rand.NewSource(seed)) draws.
func (s *Stream) Rand() *rand.Rand {
	if s.r == nil {
		s.build()
	}
	return s.r
}

// build is Rand's first call, kept out of line so that every later
// call inlines.
func (s *Stream) build() {
	src := new(source)
	src.Seed(s.seed)
	s.r = rand.New(src)
}
