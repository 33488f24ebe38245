package features

// Descriptor-set similarity: the paper represents an image as the set of
// its descriptors and scores two images with the Jaccard similarity
// |S1 ∩ S2| / |S1 ∪ S2| (Equation 2). For real descriptors "equality" is
// a tolerance match: two ORB descriptors intersect when their Hamming
// distance is at most a threshold; two float descriptors intersect when
// they pass Lowe's nearest-neighbor ratio test. Matches are one-to-one.

// DefaultHammingMax is the Hamming radius within which two 256-bit ORB
// descriptors are considered the same visual word.
const DefaultHammingMax = 20

// DefaultRatio is Lowe's ratio-test threshold for float descriptors.
const DefaultRatio = 0.8

// MatchBinary returns the size of the mutual-best (cross-checked)
// one-to-one matching between the two descriptor sets under the Hamming
// threshold: descriptor i of a matches descriptor j of b only when j is
// i's nearest neighbor, i is j's nearest neighbor, and their distance is
// at most hammingMax. Cross-checking makes the matching symmetric and
// suppresses generic matches between unrelated images.
//
// The work is done by the sub-linear kernel in prepared.go; callers that
// compare one set against many should Prepare each set once and use
// MatchPrepared/JaccardPrepared to amortize the table build.
func MatchBinary(a, b *BinarySet, hammingMax int) int {
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	return MatchPrepared(a.Prepare(), b.Prepare(), hammingMax)
}

// JaccardBinary computes Equation 2 for two ORB descriptor sets.
func JaccardBinary(a, b *BinarySet, hammingMax int) float64 {
	m := MatchBinary(a, b, hammingMax)
	union := a.Len() + b.Len() - m
	if union <= 0 {
		return 0
	}
	return float64(m) / float64(union)
}

// MatchFloat returns the size of a one-to-one ratio-test matching between
// two float descriptor sets. The greedy loop iterates the smaller set
// and marks partners in the larger one; for equal-length sets the
// iteration side is chosen by descriptor content (lexicographically
// smaller set first) rather than argument order, so the result — and
// therefore JaccardFloat — is symmetric in its arguments.
func MatchFloat(a, b *FloatSet, ratio float64) int {
	if a.Len() == 0 || b.Len() == 0 || a.Dim != b.Dim {
		return 0
	}
	small, big := a, b
	if small.Len() > big.Len() ||
		(small.Len() == big.Len() && floatSetLess(big, small)) {
		small, big = big, small
	}
	used := make([]bool, big.Len())
	r2 := ratio * ratio
	matches := 0
	for _, v := range small.Vectors {
		best, second := -1.0, -1.0
		bestIdx := -1
		for j, u := range big.Vectors {
			if used[j] {
				continue
			}
			d := sqDist(v, u)
			switch {
			case best < 0 || d < best:
				second = best
				best, bestIdx = d, j
			case second < 0 || d < second:
				second = d
			}
		}
		if bestIdx < 0 {
			continue
		}
		// Accept when clearly closer than the runner-up (or unique).
		if second < 0 || best < r2*second {
			used[bestIdx] = true
			matches++
		}
	}
	return matches
}

// JaccardFloat computes Equation 2 for two float descriptor sets using
// ratio-test matching as the intersection.
func JaccardFloat(a, b *FloatSet, ratio float64) float64 {
	m := MatchFloat(a, b, ratio)
	union := a.Len() + b.Len() - m
	if union <= 0 {
		return 0
	}
	return float64(m) / float64(union)
}

// floatSetLess orders float sets lexicographically by vector content.
// It is the canonical-order tie-break that makes MatchFloat symmetric
// when both sets have the same length; identical contents compare equal,
// for which either iteration side yields the same matching.
func floatSetLess(a, b *FloatSet) bool {
	for i := range a.Vectors {
		av, bv := a.Vectors[i], b.Vectors[i]
		for k := range av {
			if av[k] != bv[k] {
				return av[k] < bv[k]
			}
		}
	}
	return false
}

func sqDist(a, b []float32) float64 {
	var sum float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
	}
	return sum
}
