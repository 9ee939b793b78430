package serial

// perByteEnd is the seed's per-byte interrupt chain, kept as the
// oracle the burst datapath is held to: every byte written through it
// is one scheduler event at its own wire time, corrupted from the
// end's draw stream as it is delivered. It queues into the wrapped
// End and keeps its counters, so QueueLen, Drained, OnDrain and the
// byte and corruption counts read the same fields on both paths. Write
// to an end through the wrapper only: a burst Write on the same end
// would interleave a second delivery schedule.
type perByteEnd struct {
	*End
	draining bool // the per-byte chain has an event pending
}

func (w *perByteEnd) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	w.queue = append(w.queue, p...)
	if !w.draining {
		w.draining = true
		w.line.sched.After(w.line.ByteTime(), w.deliverNext)
	}
	return len(p), nil
}

// deliverNext hands the peer the byte at the head of the queue and
// schedules the next one a byte time later, or fires OnDrain once the
// queue is empty.
func (w *perByteEnd) deliverNext() {
	e := w.End
	if e.head >= len(e.queue) {
		w.draining = false
		return
	}
	b := e.queue[e.head]
	e.head++
	e.BytesSent++
	if c, hit := e.corrupt(b); hit {
		b = c
		e.queue[e.head-1] = c
		e.peer.Corrupted++
	}
	e.peer.BytesReceived++
	switch {
	case e.peer.rxRun != nil:
		e.peer.rxRun(e.queue[e.head-1 : e.head])
	case e.peer.rx != nil:
		e.peer.rx(b)
	}
	if e.head < len(e.queue) {
		e.line.sched.After(e.line.ByteTime(), w.deliverNext)
		return
	}
	e.queue = e.queue[:0]
	e.head = 0
	w.draining = false
	if e.OnDrain != nil {
		e.OnDrain()
	}
}
