// Package imagelib provides the image substrate for BEES: an 8-bit
// grayscale raster type, a procedural scene renderer used in place of the
// paper's real photo datasets, area-average resizing (used both for
// resolution compression and for AFE bitmap compression), a DCT-based
// quality-compression codec with a file-size model, and an SSIM
// implementation for image-quality assessment.
package imagelib

import "fmt"

// Raster is an 8-bit grayscale image stored row-major.
type Raster struct {
	W, H int
	Pix  []uint8
}

// NewRaster allocates a zeroed W×H raster.
func NewRaster(w, h int) *Raster {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imagelib: invalid raster size %dx%d", w, h))
	}
	return &Raster{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y). Coordinates outside the raster are
// clamped to the border, which keeps filter kernels simple at the edges.
func (r *Raster) At(x, y int) uint8 {
	if x < 0 {
		x = 0
	} else if x >= r.W {
		x = r.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= r.H {
		y = r.H - 1
	}
	return r.Pix[y*r.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (r *Raster) Set(x, y int, v uint8) {
	if x < 0 || x >= r.W || y < 0 || y >= r.H {
		return
	}
	r.Pix[y*r.W+x] = v
}

// Clone returns a deep copy of the raster.
func (r *Raster) Clone() *Raster {
	out := NewRaster(r.W, r.H)
	copy(out.Pix, r.Pix)
	return out
}

// Pixels returns the total pixel count.
func (r *Raster) Pixels() int { return r.W * r.H }

// Integral is a summed-area table over a raster, used for constant-time
// box sums (FAST pre-smoothing, BRIEF patch smoothing, SSIM windows).
// Sum[(y+1)*(W+1)+(x+1)] holds the sum of all pixels in [0,x]×[0,y].
type Integral struct {
	W, H int
	Sum  []uint64
}

// NewIntegral builds the summed-area table for r.
func NewIntegral(r *Raster) *Integral {
	w, h := r.W, r.H
	ii := &Integral{W: w, H: h, Sum: make([]uint64, (w+1)*(h+1))}
	stride := w + 1
	for y := 0; y < h; y++ {
		var rowSum uint64
		for x := 0; x < w; x++ {
			rowSum += uint64(r.Pix[y*w+x])
			ii.Sum[(y+1)*stride+(x+1)] = ii.Sum[y*stride+(x+1)] + rowSum
		}
	}
	return ii
}

// BoxSum returns the sum of pixels in the inclusive rectangle
// [x0,x1]×[y0,y1], clamped to the raster bounds.
func (ii *Integral) BoxSum(x0, y0, x1, y1 int) uint64 {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 >= ii.W {
		x1 = ii.W - 1
	}
	if y1 >= ii.H {
		y1 = ii.H - 1
	}
	if x0 > x1 || y0 > y1 {
		return 0
	}
	stride := ii.W + 1
	return ii.Sum[(y1+1)*stride+(x1+1)] - ii.Sum[y0*stride+(x1+1)] -
		ii.Sum[(y1+1)*stride+x0] + ii.Sum[y0*stride+x0]
}

// BoxMean returns the mean intensity over the inclusive rectangle,
// clamped to the raster bounds.
func (ii *Integral) BoxMean(x0, y0, x1, y1 int) float64 {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 >= ii.W {
		x1 = ii.W - 1
	}
	if y1 >= ii.H {
		y1 = ii.H - 1
	}
	if x0 > x1 || y0 > y1 {
		return 0
	}
	n := (x1 - x0 + 1) * (y1 - y0 + 1)
	return float64(ii.BoxSum(x0, y0, x1, y1)) / float64(n)
}

// BoxBlur returns r smoothed with a (2k+1)×(2k+1) box filter. BRIEF
// descriptors compare smoothed intensities to tolerate sensor noise.
// Extraction runs BoxBlurInto; BoxBlur is the allocating float-rounding
// reference that BoxBlurInto and the reference extraction pipelines in
// internal/features' tests are pinned to.
func BoxBlur(r *Raster, k int) *Raster {
	if k <= 0 {
		return r.Clone()
	}
	ii := NewIntegral(r)
	out := NewRaster(r.W, r.H)
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			m := ii.BoxMean(x-k, y-k, x+k, y+k)
			out.Pix[y*r.W+x] = uint8(m + 0.5)
		}
	}
	return out
}

func clampU8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}
