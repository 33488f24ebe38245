package features

import "bees/internal/imagelib"

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
