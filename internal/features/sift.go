package features

import (
	"math"

	"bees/internal/imagelib"
)

// SIFT-like descriptors: 128-dimension gradient-orientation histograms
// (4×4 spatial cells × 8 orientation bins over a 16×16 patch), rotation
// normalized by the keypoint orientation, L2-normalized with the standard
// 0.2 clamp. They are deliberately heavier and more precise than the
// binary ORB descriptors, reproducing the paper's accuracy ordering
// SIFT ≥ PCA-SIFT ≥ ORB and the Table I space-overhead ordering.

const (
	siftDim    = 128
	siftCells  = 4
	siftBins   = 8
	siftPatch  = 16 // patch side; cells are 4×4 pixels
	pcaSiftDim = 36
)

// FloatSet is a set of float descriptors (SIFT-like or PCA-SIFT-like).
type FloatSet struct {
	Dim       int
	Vectors   [][]float32
	Keypoints []Keypoint
	Algorithm Algorithm
}

// Len returns the number of descriptors.
func (s *FloatSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Vectors)
}

// Bytes returns the storage size of the set.
func (s *FloatSet) Bytes() int { return s.Len() * s.Dim * 4 }

// ExtractSIFT detects keypoints with the same pyramid as ORB and computes
// SIFT-like 128-d descriptors on a radius-1 box blur of each level. Like
// ExtractORB it draws a scratch arena from the internal pool, so it runs
// the same detector and pyramid; output is bit-identical to
// ExtractSIFTRef (gated in extract_diff_test.go).
func ExtractSIFT(r *imagelib.Raster, cfg Config) *FloatSet {
	s := getExtractScratch()
	defer putExtractScratch(s)
	kps := s.detectPyramid(r, cfg)
	set := &FloatSet{
		Dim:       siftDim,
		Vectors:   make([][]float32, 0, len(kps)),
		Keypoints: make([]Keypoint, 0, len(kps)),
		Algorithm: AlgSIFT,
	}
	for _, kp := range kps {
		sm := s.smoothedLevel(kp.Level, 1)
		kp.Angle = orientation(sm, kp.X, kp.Y)
		set.Vectors = append(set.Vectors, siftDescriptor(sm, kp))
		set.Keypoints = append(set.Keypoints, kp)
	}
	return set
}

// ExtractPCASIFT computes SIFT-like descriptors and projects them to 36
// dimensions with a fixed orthonormal projection, following PCA-SIFT's
// reduce-the-descriptor design.
func ExtractPCASIFT(r *imagelib.Raster, cfg Config) *FloatSet {
	return projectSet(ExtractSIFT(r, cfg))
}

// projectSet projects every vector of a SIFT set to PCA-SIFT's 36
// dimensions, keeping its keypoints.
func projectSet(sift *FloatSet) *FloatSet {
	out := &FloatSet{
		Dim:       pcaSiftDim,
		Vectors:   make([][]float32, 0, sift.Len()),
		Keypoints: sift.Keypoints,
		Algorithm: AlgPCASIFT,
	}
	for _, v := range sift.Vectors {
		out.Vectors = append(out.Vectors, projectPCA(v))
	}
	return out
}

// siftDescriptor computes the 128-d histogram for one keypoint.
func siftDescriptor(r *imagelib.Raster, kp Keypoint) []float32 {
	desc := make([]float32, siftDim)
	half := siftPatch / 2
	for py := 0; py < siftPatch; py++ {
		for px := 0; px < siftPatch; px++ {
			x := kp.X + px - half
			y := kp.Y + py - half
			gx := float64(r.At(x+1, y)) - float64(r.At(x-1, y))
			gy := float64(r.At(x, y+1)) - float64(r.At(x, y-1))
			mag := math.Sqrt(gx*gx + gy*gy)
			if mag == 0 {
				continue
			}
			theta := math.Atan2(gy, gx) - kp.Angle
			theta = math.Mod(theta, 2*math.Pi)
			if theta < 0 {
				theta += 2 * math.Pi
			}
			bin := int(theta / (2 * math.Pi) * siftBins)
			if bin >= siftBins {
				bin = siftBins - 1
			}
			cellX := px / (siftPatch / siftCells)
			cellY := py / (siftPatch / siftCells)
			desc[(cellY*siftCells+cellX)*siftBins+bin] += float32(mag)
		}
	}
	normalizeClamp(desc, 0.2)
	return desc
}

// normalizeClamp L2-normalizes v, clamps entries at maxVal, and
// renormalizes — the standard SIFT illumination-robustness step.
func normalizeClamp(v []float32, maxVal float32) {
	l2norm(v)
	clamped := false
	for i, x := range v {
		if x > maxVal {
			v[i] = maxVal
			clamped = true
		}
	}
	if clamped {
		l2norm(v)
	}
}

func l2norm(v []float32) {
	var sum float64
	for _, x := range v {
		sum += float64(x) * float64(x)
	}
	if sum == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(sum))
	for i := range v {
		v[i] *= inv
	}
}

// pcaProjection is a fixed 36×128 orthonormal projection generated from a
// seeded Gaussian matrix via Gram-Schmidt. In PCA-SIFT the projection is
// learned from patches; a random orthonormal projection preserves
// distances (Johnson–Lindenstrauss) and reproduces the accuracy-between-
// SIFT-and-ORB behaviour without training data.
var pcaProjection = func() [pcaSiftDim][siftDim]float32 {
	var m [pcaSiftDim][siftDim]float64
	rng := newSplitMix(0x9ca51f7)
	for i := 0; i < pcaSiftDim; i++ {
		for j := 0; j < siftDim; j++ {
			m[i][j] = rng.normFloat64()
		}
	}
	// Gram-Schmidt orthonormalization of the rows.
	for i := 0; i < pcaSiftDim; i++ {
		for k := 0; k < i; k++ {
			var dot float64
			for j := 0; j < siftDim; j++ {
				dot += m[i][j] * m[k][j]
			}
			for j := 0; j < siftDim; j++ {
				m[i][j] -= dot * m[k][j]
			}
		}
		var norm float64
		for j := 0; j < siftDim; j++ {
			norm += m[i][j] * m[i][j]
		}
		norm = math.Sqrt(norm)
		for j := 0; j < siftDim; j++ {
			m[i][j] /= norm
		}
	}
	var out [pcaSiftDim][siftDim]float32
	for i := range m {
		for j := range m[i] {
			out[i][j] = float32(m[i][j])
		}
	}
	return out
}()

func projectPCA(v []float32) []float32 {
	out := make([]float32, pcaSiftDim)
	for i := 0; i < pcaSiftDim; i++ {
		var sum float32
		row := &pcaProjection[i]
		for j := 0; j < siftDim; j++ {
			sum += row[j] * v[j]
		}
		out[i] = sum
	}
	l2norm(out)
	return out
}

// splitMix is a tiny deterministic RNG used only for building the fixed
// projection matrix (keeps the package free of math/rand global state).
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) float64() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}

// normFloat64 draws a standard normal via Box-Muller.
func (s *splitMix) normFloat64() float64 {
	u1 := s.float64()
	for u1 == 0 {
		u1 = s.float64()
	}
	u2 := s.float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
