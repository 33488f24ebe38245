// Package metrics implements the evaluation measures of Section IV:
// top-K query precision (Equation 3), true/false-positive sweeps over
// similarity thresholds (Fig. 4), geographic coverage (Fig. 12), and
// small statistics helpers used by the harness.
package metrics

import (
	"math"
	"sort"
)

// PrecisionAtK computes Equation 3 for one query: the fraction of
// retrieved group IDs that match the queried image's group.
func PrecisionAtK(retrievedGroups []int64, trueGroup int64) float64 {
	if len(retrievedGroups) == 0 {
		return 0
	}
	hits := 0
	for _, g := range retrievedGroups {
		if g == trueGroup {
			hits++
		}
	}
	return float64(hits) / float64(len(retrievedGroups))
}

// ROCPoint is one similarity-threshold operating point of Fig. 4.
type ROCPoint struct {
	Threshold float64
	// TPR is the fraction of similar pairs whose similarity exceeds the
	// threshold (similar images accurately detected).
	TPR float64
	// FPR is the fraction of dissimilar pairs whose similarity exceeds
	// the threshold (dissimilar images detected as similar).
	FPR float64
}

// Sweep computes TPR/FPR at each threshold from the similarity scores of
// similar and dissimilar image pairs.
func Sweep(similar, dissimilar []float64, thresholds []float64) []ROCPoint {
	out := make([]ROCPoint, 0, len(thresholds))
	for _, t := range thresholds {
		out = append(out, ROCPoint{
			Threshold: t,
			TPR:       fracAbove(similar, t),
			FPR:       fracAbove(dissimilar, t),
		})
	}
	return out
}

func fracAbove(v []float64, t float64) float64 {
	if len(v) == 0 {
		return 0
	}
	n := 0
	for _, x := range v {
		if x > t {
			n++
		}
	}
	return float64(n) / float64(len(v))
}

// UniqueLocations counts distinct (lat, lon) geotags — the paper's
// coverage measure ("the number of unique locations covered").
func UniqueLocations(lats, lons []float64) int {
	if len(lats) != len(lons) {
		panic("metrics: lat/lon length mismatch")
	}
	seen := make(map[[2]float64]struct{}, len(lats))
	for i := range lats {
		seen[[2]float64{lats[i], lons[i]}] = struct{}{}
	}
	return len(seen)
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank on a copy
// of v; 0 for empty input.
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	idx := int(math.Round(q * float64(len(s)-1)))
	return s[idx]
}
