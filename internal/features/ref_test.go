package features

// Test oracles and entry points: the reference implementations the
// shipped kernels are pinned against bit for bit, and standalone wrappers
// around the extraction arena's FAST detector. No binary calls them.

import (
	"math/bits"

	"bees/internal/imagelib"
)

// Hamming returns the Hamming distance between two descriptors.
func (d Descriptor) Hamming(o Descriptor) int {
	return bits.OnesCount64(d[0]^o[0]) + bits.OnesCount64(d[1]^o[1]) +
		bits.OnesCount64(d[2]^o[2]) + bits.OnesCount64(d[3]^o[3])
}

// MatchBinaryRef is the brute-force O(n·m) reference matcher: the oracle
// the differential/property/fuzz suites pin the fast kernel against, and
// the baseline the bench suites measure speedups from.
func MatchBinaryRef(a, b *BinarySet, hammingMax int) int {
	return matchBinaryRef(a, b, hammingMax)
}

// JaccardBinaryRef computes Equation 2 with the brute-force reference
// matcher (see MatchBinaryRef).
func JaccardBinaryRef(a, b *BinarySet, hammingMax int) float64 {
	m := matchBinaryRef(a, b, hammingMax)
	union := a.Len() + b.Len() - m
	if union <= 0 {
		return 0
	}
	return float64(m) / float64(union)
}

// matchBinaryRef is the original full-scan matcher, kept verbatim as the
// test oracle the prepared kernel must equal bit for bit.
func matchBinaryRef(a, b *BinarySet, hammingMax int) int {
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	bestAB := nearestBinary(a.Descriptors, b.Descriptors, hammingMax)
	bestBA := nearestBinary(b.Descriptors, a.Descriptors, hammingMax)
	matches := 0
	for i, j := range bestAB {
		if j >= 0 && bestBA[j] == i {
			matches++
		}
	}
	return matches
}

// nearestBinary returns, for every descriptor in from, the index of its
// nearest neighbor in to when that neighbor is within hammingMax (else
// -1). Ties resolve to the lowest index, keeping results deterministic.
func nearestBinary(from, to []Descriptor, hammingMax int) []int {
	best := make([]int, len(from))
	for i, d := range from {
		bestIdx, bestDist := -1, hammingMax+1
		for j := range to {
			if h := d.Hamming(to[j]); h < bestDist {
				bestDist, bestIdx = h, j
			}
		}
		best[i] = bestIdx
	}
	return best
}

// nearestPrepared is the accelerated twin of nearestBinary: for every
// descriptor in from, the index of its nearest neighbor in to within
// hammingMax (else -1), equal distances resolving to the lowest index.
func nearestPrepared(from, to *PreparedBinarySet, hammingMax int) []int {
	best := make([]int, from.Len())
	if to.Len() == 0 || hammingMax < 0 || hammingMax+1 <= 0 {
		for i := range best {
			best[i] = -1
		}
		return best
	}
	for i := range from.Set.Descriptors {
		best[i] = to.nearestOne(&from.Set.Descriptors[i], from.queryBands(i, hammingMax, to),
			int(from.pop[i]), hammingMax, hammingMax+1, -1)
	}
	return best
}

// scatterBandsRef is the specification scatterBands is tested against:
// band b collects bit b of each 32-bit half-word.
func scatterBandsRef(d *Descriptor, out []uint8) {
	h0, h1 := uint32(d[0]), uint32(d[0]>>32)
	h2, h3 := uint32(d[1]), uint32(d[1]>>32)
	h4, h5 := uint32(d[2]), uint32(d[2]>>32)
	h6, h7 := uint32(d[3]), uint32(d[3]>>32)
	for b := 0; b < mihBands; b++ {
		out[b] = uint8(((h0>>b)&1)<<0 | ((h1>>b)&1)<<1 | ((h2>>b)&1)<<2 |
			((h3>>b)&1)<<3 | ((h4>>b)&1)<<4 | ((h5>>b)&1)<<5 |
			((h6>>b)&1)<<6 | ((h7>>b)&1)<<7)
	}
}

// ExtractORBRef is the original allocating extraction pipeline, kept
// verbatim as the bit-identity oracle for ExtractORB: descriptors,
// keypoints (every field) and their order must match exactly.
func ExtractORBRef(r *imagelib.Raster, cfg Config) *BinarySet {
	kps, levels := detectPyramid(r, cfg)
	set := &BinarySet{
		Descriptors: make([]Descriptor, 0, len(kps)),
		Keypoints:   make([]Keypoint, 0, len(kps)),
	}
	smoothed := make([]*imagelib.Raster, len(levels))
	for _, kp := range kps {
		lvl := levels[kp.Level]
		if smoothed[kp.Level] == nil {
			smoothed[kp.Level] = imagelib.BoxBlur(lvl, cfg.BlurRadius)
		}
		sm := smoothed[kp.Level]
		kp.Angle = orientation(sm, kp.X, kp.Y)
		set.Descriptors = append(set.Descriptors, computeBRIEF(sm, kp))
		set.Keypoints = append(set.Keypoints, kp)
	}
	return set
}

// DetectFAST runs the extraction arena's FAST-9 detector on r with the
// given intensity threshold: 3×3 non-maximum suppression on the corner
// score, surviving keypoints unordered and without orientation. Its
// results must be bit-identical to DetectFASTRef.
func DetectFAST(r *imagelib.Raster, threshold int) []Keypoint {
	s := getExtractScratch()
	defer putExtractScratch(s)
	kps := s.detectFAST(r, threshold, s.kps[:0])
	s.kps = kps[:0]
	if len(kps) == 0 {
		return nil
	}
	out := make([]Keypoint, len(kps))
	copy(out, kps)
	return out
}

// DetectFASTScratch is DetectFAST on a caller-owned scratch: zero
// steady-state allocations. The returned slice is backed by the scratch
// and valid only until its next use.
func DetectFASTScratch(r *imagelib.Raster, threshold int, s *ExtractScratch) []Keypoint {
	s.kps = s.detectFAST(r, threshold, s.kps[:0])
	return s.kps
}
