package features

import (
	"sort"

	"bees/internal/imagelib"
)

// Config controls feature extraction. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// MaxFeatures caps the number of keypoints retained across all
	// pyramid levels (strongest first).
	MaxFeatures int
	// FASTThreshold is the FAST-9 intensity threshold.
	FASTThreshold int
	// Levels is the number of pyramid levels; ScaleFactor is the
	// downsampling ratio between consecutive levels.
	Levels      int
	ScaleFactor float64
	// BlurRadius is the box-blur radius applied before BRIEF sampling.
	BlurRadius int
}

// DefaultConfig returns the extraction parameters used throughout the
// evaluation (ORB defaults: 8-ish levels at 1.2 in OpenCV; reduced here
// for the small canonical raster).
func DefaultConfig() Config {
	return Config{
		MaxFeatures:   300,
		FASTThreshold: 18,
		Levels:        10,
		ScaleFactor:   1.12,
		BlurRadius:    3,
	}
}

// BinarySet is the set of ORB descriptors extracted from one image. It is
// the unit the server index stores and Equation 2 compares.
type BinarySet struct {
	Descriptors []Descriptor
	Keypoints   []Keypoint
}

// Len returns the number of descriptors.
func (s *BinarySet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Descriptors)
}

// Bytes returns the wire/storage size of the set (descriptors only, as in
// Table I's accounting).
func (s *BinarySet) Bytes() int { return s.Len() * AlgORB.DescriptorBytes() }

// ExtractORB runs the full ORB pipeline on r: a scale pyramid, FAST-9
// detection per level, intensity-centroid orientation, and steered BRIEF
// descriptors computed on a smoothed copy of each level. It draws a
// scratch arena from an internal pool, so repeated calls reuse the
// pyramid/score/integral buffers; output is bit-identical to
// ExtractORBRef (gated by the differential suite in extract_diff_test.go).
func ExtractORB(r *imagelib.Raster, cfg Config) *BinarySet {
	s := getExtractScratch()
	defer putExtractScratch(s)
	return ExtractORBScratch(r, cfg, s)
}

// ExtractORBScratch is ExtractORB on a caller-owned arena: steady-state
// extraction allocates only the returned BinarySet. The scratch must not
// be shared across goroutines.
func ExtractORBScratch(r *imagelib.Raster, cfg Config, s *ExtractScratch) *BinarySet {
	kps := s.detectPyramid(r, cfg)
	set := &BinarySet{
		Descriptors: make([]Descriptor, 0, len(kps)),
		Keypoints:   make([]Keypoint, 0, len(kps)),
	}
	for _, kp := range kps {
		sm := s.smoothedLevel(kp.Level, cfg.BlurRadius)
		kp.Angle = orientation(sm, kp.X, kp.Y)
		set.Descriptors = append(set.Descriptors, computeBRIEF(sm, kp))
		set.Keypoints = append(set.Keypoints, kp)
	}
	return set
}

// detectPyramid builds the scale pyramid, detects FAST keypoints on every
// level, drops points too close to a border for BRIEF, and returns the
// strongest MaxFeatures keypoints together with the level rasters. It is
// the reference pyramid (every buffer allocated per call, detection via
// DetectFASTRef), serving ExtractORBRef and the SIFT baselines; the
// production twin is (*ExtractScratch).detectPyramid.
func detectPyramid(r *imagelib.Raster, cfg Config) ([]Keypoint, []*imagelib.Raster) {
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
