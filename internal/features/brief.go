package features

import (
	"math"
	"math/rand"

	"bees/internal/imagelib"
)

// Descriptor is a 256-bit binary BRIEF descriptor stored as 4 uint64
// words, matching ORB's descriptor format.
type Descriptor [4]uint64

// Bit returns bit i of the descriptor.
func (d Descriptor) Bit(i int) uint64 { return (d[i>>6] >> uint(i&63)) & 1 }

const (
	descriptorBits = 256
	patchRadius    = 13 // BRIEF sampling offsets lie in [-13, 13]
	// patchMargin is the minimum distance from the image border a
	// keypoint needs for all rotated sample points to stay in bounds
	// (13·√2 rounded up, plus the smoothing radius).
	patchMargin = 21
	// angleBins discretizes orientation for steered BRIEF, like ORB's
	// 12-degree lookup tables.
	angleBins = 30
)

type briefPair struct{ x1, y1, x2, y2 int8 }

// briefPatterns[b] is the test pattern rotated to angle bin b.
// The base pattern is drawn once from a fixed seed (Gaussian offsets,
// σ = patchRadius/2, clamped to the patch), the same construction as the
// original BRIEF paper.
var briefPatterns = func() [angleBins][descriptorBits]briefPair {
	rng := rand.New(rand.NewSource(0x0b5e55ed))
	var base [descriptorBits]briefPair
	draw := func() int8 {
		for {
			v := rng.NormFloat64() * patchRadius / 2
			if v >= -patchRadius && v <= patchRadius {
				return int8(math.Round(v))
			}
		}
	}
	for i := range base {
		base[i] = briefPair{draw(), draw(), draw(), draw()}
	}
	var out [angleBins][descriptorBits]briefPair
	for b := 0; b < angleBins; b++ {
		theta := 2 * math.Pi * float64(b) / angleBins
		sin, cos := math.Sin(theta), math.Cos(theta)
		rot := func(x, y int8) (int8, int8) {
			rx := cos*float64(x) - sin*float64(y)
			ry := sin*float64(x) + cos*float64(y)
			return int8(math.Round(rx)), int8(math.Round(ry))
		}
		for i, p := range base {
			x1, y1 := rot(p.x1, p.y1)
			x2, y2 := rot(p.x2, p.y2)
			out[b][i] = briefPair{x1, y1, x2, y2}
		}
	}
	return out
}()

// orientation computes the intensity-centroid orientation of the patch
// around (x, y): θ = atan2(m01, m10) over a radius-7 disc, as in ORB.
func orientation(r *imagelib.Raster, x, y int) float64 {
	const radius = 7
	var m10, m01 float64
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			if dx*dx+dy*dy > radius*radius {
				continue
			}
			v := float64(r.At(x+dx, y+dy))
			m10 += float64(dx) * v
			m01 += float64(dy) * v
		}
	}
	return math.Atan2(m01, m10)
}

// angleBin maps an angle in radians to a steered-BRIEF pattern bin.
func angleBin(theta float64) int {
	t := math.Mod(theta, 2*math.Pi)
	if t < 0 {
		t += 2 * math.Pi
	}
	b := int(t/(2*math.Pi)*angleBins + 0.5)
	if b >= angleBins {
		b = 0
	}
	return b
}

// computeBRIEF builds the steered BRIEF descriptor for a keypoint on the
// pre-smoothed raster. The caller guarantees the keypoint is at least
// patchMargin away from every border.
func computeBRIEF(smoothed *imagelib.Raster, kp Keypoint) Descriptor {
	pattern := &briefPatterns[angleBin(kp.Angle)]
	var d Descriptor
	w := smoothed.W
	pix := smoothed.Pix
	for i := 0; i < descriptorBits; i++ {
		p := pattern[i]
		a := pix[(kp.Y+int(p.y1))*w+kp.X+int(p.x1)]
		b := pix[(kp.Y+int(p.y2))*w+kp.X+int(p.x2)]
		if a < b {
			d[i>>6] |= 1 << uint(i&63)
		}
	}
	return d
}
