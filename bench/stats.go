package bench

import (
	"encoding/binary"
	"math/bits"
	"sort"
	"time"
)

// Histogram is a fixed-size log-linear histogram of non-negative
// durations: exact below 128 ns, then 128 linear sub-buckets per power
// of two, so every recorded value lands in a bucket less than 1% wide.
// Recording never allocates, which keeps the harness out of the
// per-ping allocation count it measures.
type Histogram struct {
	counts [64 * histSub]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
)

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// histMid returns the midpoint of bucket i.
func histMid(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := i/histSub - 1
	lo := uint64(i%histSub+histSub) << uint(e)
	return float64(lo) + float64(uint64(1)<<uint(e))/2
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(uint64(d))]++
	h.n++
}

// Count reports the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.n }

// Quantile returns the q-quantile (0 < q <= 1) in nanoseconds, as the
// midpoint of the bucket holding the ceil(q·n)-th smallest sample; 0
// when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histMid(i)
		}
	}
	return histMid(len(h.counts) - 1)
}

// Quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" default), so spreads computed here match ones computed
// from the same numbers in Python. It needs at least two values.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var r [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		r[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return r[0], r[1], r[2]
}

// Median returns the median of xs (0 when empty).
func Median(xs []float64) float64 {
	_, m, _ := Quartiles(xs)
	return m
}

// rttHash folds one RTT into a running FNV-1a hash; seed the hash with
// fnvOffset. The digest uses it to prove two runs produced the same RTT
// series, order included.
func rttHash(h uint64, rtt time.Duration) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(rtt))
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

const fnvOffset = 14695981039346656037
