package metrics

import (
	"fmt"
	"math"
)

// QuantileEstimator is a memory-bounded streaming quantile sketch for
// the city-scale scenario harness: at thousands of devices the global
// freshness stream is too large to keep per-sample, so observations are
// folded into geometrically spaced buckets. Within the configured
// [min, max] range the estimate of any quantile is within a factor
// √growth of the exact nearest-rank sample value (the estimate is the
// geometric midpoint of the bucket holding the ranked sample), so the
// relative error is bounded by the constructor's choice of growth — the
// estimator trades a fixed, known resolution for O(log(max/min)/log
// growth) memory independent of the stream length.
//
// The estimator is deterministic: the same observation sequence yields
// the same estimates regardless of timing or parallelism (callers
// serialize Observe; the scenario harness runs a single event loop).
type QuantileEstimator struct {
	min    float64
	max    float64
	growth float64
	logG   float64
	counts []uint64
	n      uint64
}

// NewQuantileEstimator creates a sketch covering [min, max] with the
// given per-bucket geometric growth (> 1). Observations below min or
// above max are clamped to the boundary buckets, so min/max also bound
// the reported estimates. Typical use: NewQuantileEstimator(1e-3,
// 3.6e6, 1.05) covers 1 µs…1 h of millisecond latencies in ~450 buckets
// with ≤ √1.05 ≈ 2.5% relative error.
func NewQuantileEstimator(min, max, growth float64) *QuantileEstimator {
	if !(min > 0) || !(max > min) || !(growth > 1) {
		panic(fmt.Sprintf("metrics: invalid quantile sketch [%v, %v] growth %v", min, max, growth))
	}
	logG := math.Log(growth)
	buckets := int(math.Ceil(math.Log(max/min)/logG)) + 1
	return &QuantileEstimator{
		min:    min,
		max:    max,
		growth: growth,
		logG:   logG,
		counts: make([]uint64, buckets),
	}
}

// Observe folds one sample into the sketch.
func (e *QuantileEstimator) Observe(v float64) {
	i := 0
	switch {
	case v <= e.min:
		// i = 0: underflow clamps to the min bucket.
	case v >= e.max:
		i = len(e.counts) - 1
	default:
		i = int(math.Log(v/e.min) / e.logG)
		if i >= len(e.counts) {
			i = len(e.counts) - 1
		}
	}
	e.counts[i]++
	e.n++
}

// Quantile estimates the q-quantile using the same nearest-rank rule as
// Quantile (rank = round(q·(n−1))), returning 0 for an empty sketch.
// The estimate is the geometric midpoint of the bucket holding the
// ranked sample, clamped to [min, max].
func (e *QuantileEstimator) Quantile(q float64) float64 {
	if e.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Round(q * float64(e.n-1))) // 0-based
	var seen uint64
	for i, c := range e.counts {
		seen += c
		if seen > rank {
			est := e.min * math.Pow(e.growth, float64(i)+0.5)
			if est < e.min {
				est = e.min
			}
			if est > e.max {
				est = e.max
			}
			return est
		}
	}
	return e.max
}
