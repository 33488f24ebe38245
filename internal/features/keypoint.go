// Package features implements the local-feature substrate BEES relies on:
// a FAST-9 corner detector, an ORB-style pipeline (scale pyramid,
// intensity-centroid orientation, steered 256-bit BRIEF descriptors), plus
// SIFT-like 128-d and PCA-SIFT-like 36-d float descriptors for the
// baseline comparisons, and the descriptor-set Jaccard similarity of the
// paper's Equation 2.
package features

// Keypoint is a detected interest point. X and Y are coordinates in the
// pyramid level the point was detected at; Level and Scale relate them to
// the base image.
type Keypoint struct {
	X, Y  int
	Level int
	// Scale is the downsampling factor of the level (1.0 at level 0).
	Scale float64
	// Score is the FAST corner response used for ranking and non-max
	// suppression.
	Score int
	// Angle is the intensity-centroid orientation in radians.
	Angle float64
}

// Algorithm identifies a feature-extraction algorithm. Relative compute
// costs and feature sizes across algorithms follow the paper's Section
// III-D and Table I.
type Algorithm int

// Supported algorithms.
const (
	AlgORB Algorithm = iota + 1
	AlgSIFT
	AlgPCASIFT
)

// DescriptorBytes returns the per-descriptor storage size in bytes:
// ORB descriptors are 256 bits; SIFT descriptors are 128 float32s;
// PCA-SIFT descriptors are 36 float32s.
func (a Algorithm) DescriptorBytes() int {
	switch a {
	case AlgORB:
		return 256 / 8
	case AlgSIFT:
		return 128 * 4
	case AlgPCASIFT:
		return 36 * 4
	default:
		return 0
	}
}
