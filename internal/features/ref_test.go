package features

// Test oracles and entry points: the reference implementations the
// shipped kernels are pinned against bit for bit, and standalone wrappers
// around the extraction arena's FAST detector. No binary calls them.

import (
	"sort"

	"bees/internal/imagelib"
)

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
// It runs the kernel's own four-lane forward pass, so every differential
// that compares nearest indices pins each lane and the tail.
func nearestPrepared(from, to *PreparedBinarySet, hammingMax int) []int {
	best := make([]int, from.Len())
	if to.Len() == 0 || hammingMax < 0 || hammingMax+1 <= 0 {
		for i := range best {
			best[i] = -1
		}
		return best
	}
	a, b := from.Set.Descriptors, to.Set.Descriptors
	fa, fb := make([]uint64, len(a)), make([]uint64, len(b))
	foldAll(fa, a)
	foldAll(fb, b)
	best32 := make([]int32, len(a))
	forwardNearest(a, b, fa, fb, hammingMax, 0, best32)
	for i, j := range best32 {
		best[i] = int(j)
	}
	return best
}

// ExtractORBRef is the original allocating extraction pipeline, kept
// verbatim as the bit-identity oracle for ExtractORB: descriptors,
// keypoints (every field) and their order must match exactly.
func ExtractORBRef(r *imagelib.Raster, cfg Config) *BinarySet {
	kps, levels := detectPyramidRef(r, cfg)
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

// ExtractSIFTRef is the original allocating SIFT pipeline, kept as the
// bit-identity oracle for ExtractSIFT: the reference pyramid, and a
// radius-1 BoxBlur per level that owns keypoints.
func ExtractSIFTRef(r *imagelib.Raster, cfg Config) *FloatSet {
	kps, levels := detectPyramidRef(r, cfg)
	set := &FloatSet{
		Dim:       siftDim,
		Vectors:   make([][]float32, 0, len(kps)),
		Keypoints: make([]Keypoint, 0, len(kps)),
		Algorithm: AlgSIFT,
	}
	smoothed := make([]*imagelib.Raster, len(levels))
	for _, kp := range kps {
		if smoothed[kp.Level] == nil {
			smoothed[kp.Level] = imagelib.BoxBlur(levels[kp.Level], 1)
		}
		sm := smoothed[kp.Level]
		kp.Angle = orientation(sm, kp.X, kp.Y)
		set.Vectors = append(set.Vectors, siftDescriptor(sm, kp))
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

// detectPyramidRef builds the scale pyramid, detects FAST keypoints on
// every level, drops points too close to a border for BRIEF, and returns
// the strongest MaxFeatures keypoints together with the level rasters.
// It is the original pyramid (every buffer allocated per call, detection
// via DetectFASTRef), kept as the oracle of (*ExtractScratch).detectPyramid
// for ExtractORBRef and ExtractSIFTRef.
func detectPyramidRef(r *imagelib.Raster, cfg Config) ([]Keypoint, []*imagelib.Raster) {
	if cfg.Levels < 1 {
		cfg.Levels = 1
	}
	if cfg.ScaleFactor <= 1 {
		cfg.ScaleFactor = 1.25
	}
	if cfg.MaxFeatures <= 0 {
		cfg.MaxFeatures = 300
	}
	levels := make([]*imagelib.Raster, 0, cfg.Levels)
	scales := make([]float64, 0, cfg.Levels)
	cur := r
	scale := 1.0
	for l := 0; l < cfg.Levels; l++ {
		if cur.W < 2*patchMargin+8 || cur.H < 2*patchMargin+8 {
			break
		}
		levels = append(levels, cur)
		scales = append(scales, scale)
		scale *= cfg.ScaleFactor
		nw := int(float64(r.W)/scale + 0.5)
		nh := int(float64(r.H)/scale + 0.5)
		if nw < 8 || nh < 8 {
			break
		}
		cur = imagelib.Downsample(r, nw, nh)
	}
	// Distribute the feature budget across levels proportionally to level
	// area (as OpenCV ORB does). A single global score cap would
	// concentrate every keypoint in the fine levels and leave the coarse
	// levels unrepresented — destroying cross-resolution matching, which
	// AFE bitmap compression depends on.
	totalArea := 0
	for _, lvl := range levels {
		totalArea += lvl.Pixels()
	}
	var all []Keypoint
	for li, lvl := range levels {
		perLevel := make([]Keypoint, 0, 128)
		for _, kp := range DetectFASTRef(lvl, cfg.FASTThreshold) {
			if kp.X < patchMargin || kp.X >= lvl.W-patchMargin ||
				kp.Y < patchMargin || kp.Y >= lvl.H-patchMargin {
				continue
			}
			kp.Level = li
			kp.Scale = scales[li]
			perLevel = append(perLevel, kp)
		}
		sortKeypoints(perLevel)
		budget := cfg.MaxFeatures * lvl.Pixels() / totalArea
		if budget < 8 {
			budget = 8
		}
		if len(perLevel) > budget {
			perLevel = perLevel[:budget]
		}
		all = append(all, perLevel...)
	}
	sortKeypoints(all)
	if len(all) > cfg.MaxFeatures {
		all = all[:cfg.MaxFeatures]
	}
	return all, levels
}

// sortKeypoints orders by descending score with deterministic tie-breaks.
func sortKeypoints(kps []Keypoint) {
	sort.Slice(kps, func(i, j int) bool {
		if kps[i].Score != kps[j].Score {
			return kps[i].Score > kps[j].Score
		}
		if kps[i].Level != kps[j].Level {
			return kps[i].Level < kps[j].Level
		}
		if kps[i].Y != kps[j].Y {
			return kps[i].Y < kps[j].Y
		}
		return kps[i].X < kps[j].X
	})
}

// DetectFASTRef is the original detector, kept as the bit-identity oracle
// for the arena detector: it scores every pixel into a freshly allocated
// w×h plane, then runs non-maximum suppression over the plane.
func DetectFASTRef(r *imagelib.Raster, threshold int) []Keypoint {
	if threshold < 1 {
		threshold = 1
	}
	w, h := r.W, r.H
	if w < 8 || h < 8 {
		return nil
	}
	scores := make([]int, w*h)
	for y := 3; y < h-3; y++ {
		for x := 3; x < w-3; x++ {
			if s := fastScoreRef(r, x, y, threshold); s > 0 {
				scores[y*w+x] = s
			}
		}
	}
	kps := make([]Keypoint, 0, 256)
	for y := 3; y < h-3; y++ {
		for x := 3; x < w-3; x++ {
			s := scores[y*w+x]
			if s == 0 {
				continue
			}
			if !isLocalMax(scores, w, x, y, s) {
				continue
			}
			kps = append(kps, Keypoint{X: x, Y: y, Scale: 1, Score: s})
		}
	}
	return kps
}

// fastScoreRef returns a positive corner score if (x, y) passes the
// FAST-9 test, else 0. The score is the sum of absolute differences over
// the qualifying arc, which is the conventional ranking function.
func fastScoreRef(r *imagelib.Raster, x, y, threshold int) int {
	c := int(r.Pix[y*r.W+x])
	var diffs [16]int
	for i, off := range circleOffsets {
		diffs[i] = int(r.Pix[(y+off[1])*r.W+x+off[0]]) - c
	}
	// Quick reject using the N/S/E/W pixels: for an arc of 9 to exist, at
	// least 2 of the 4 compass pixels must be beyond the threshold on the
	// same side.
	bright, dark := 0, 0
	for _, i := range [4]int{0, 4, 8, 12} {
		if diffs[i] > threshold {
			bright++
		} else if diffs[i] < -threshold {
			dark++
		}
	}
	if bright < 2 && dark < 2 {
		return 0
	}
	best := 0
	// Scan contiguous runs on the doubled circle.
	for side := 0; side < 2; side++ {
		run, sum := 0, 0
		for i := 0; i < 32; i++ {
			d := diffs[i&15]
			ok := d > threshold
			if side == 1 {
				ok = d < -threshold
			}
			if !ok {
				run, sum = 0, 0
				continue
			}
			run++
			if d < 0 {
				sum -= d
			} else {
				sum += d
			}
			if run >= fastArc && sum > best {
				best = sum
			}
			if run >= 16 {
				break // full circle; avoid double counting
			}
		}
	}
	return best
}

func isLocalMax(scores []int, w, x, y, s int) bool {
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			n := scores[(y+dy)*w+x+dx]
			if n > s {
				return false
			}
			// Break score ties deterministically by position.
			if n == s && (dy < 0 || (dy == 0 && dx < 0)) {
				return false
			}
		}
	}
	return true
}
