package telemetry

import (
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket int64 histogram: observations land in the
// first bucket whose (inclusive) upper bound is ≥ the value; values above
// every bound land in the implicit overflow bucket. Observe is lock-free.
// The nil histogram is a no-op.
type Histogram struct {
	bounds []int64 // sorted, strictly increasing upper bounds
	counts []atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	// Drop duplicates so every bucket is distinct.
	out := b[:0]
	for i, v := range b {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return &Histogram{bounds: out, counts: make([]atomic.Int64, len(out)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// snapshot loads the histogram's counters. Not atomic across buckets:
// an observation racing the snapshot may appear in the count but not yet
// in its bucket (or vice versa); totals converge on the next scrape.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.n.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]Bucket, 0, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue // keep scrapes compact; bucket layout is still stable
		}
		b := Bucket{Count: c}
		if i < len(h.bounds) {
			b.Le = h.bounds[i]
		} else {
			b.Le = -1 // overflow bucket: no upper bound
		}
		s.Buckets = append(s.Buckets, b)
	}
	return s
}

// ExpBuckets returns n exponentially growing upper bounds: start,
// start·factor, start·factor², … Useful as histogram bounds.
func ExpBuckets(start int64, factor float64, n int) []int64 {
	if start <= 0 {
		start = 1
	}
	if factor <= 1 {
		factor = 2
	}
	out := make([]int64, 0, n)
	v := float64(start)
	for i := 0; i < n; i++ {
		out = append(out, int64(v))
		v *= factor
	}
	return out
}

// Shared bucket layouts: durations in nanoseconds from 100µs to ~54min,
// sizes in bytes from 1 KiB to 1 GiB.
var (
	durationBuckets = ExpBuckets(100_000, 2, 25)
	sizeBuckets     = ExpBuckets(1024, 2, 21)
)

// SizeBuckets returns the shared byte-size bucket layout (1 KiB doubling
// to 1 GiB).
func SizeBuckets() []int64 { return sizeBuckets }
