package imagelib

// Downsample resizes r to w×h using area averaging, in floating point.
// Area averaging is used because it is what camera pipelines do when
// scaling down and it keeps descriptor statistics stable. Upscaling
// requests fall back to bilinear interpolation. Shipped code downscales
// with the integer kernel DownsampleInto, which equals it byte for byte;
// Downsample is that kernel's oracle, and the upscale path of
// CompressBitmap.
func Downsample(r *Raster, w, h int) *Raster {
	if w <= 0 || h <= 0 {
		panic("imagelib: Downsample to non-positive size")
	}
	if w == r.W && h == r.H {
		return r.Clone()
	}
	if w > r.W || h > r.H {
		return resizeBilinear(r, w, h)
	}
	out := NewRaster(w, h)
	xRatio := float64(r.W) / float64(w)
	yRatio := float64(r.H) / float64(h)
	ii := NewIntegral(r)
	for y := 0; y < h; y++ {
		y0 := int(float64(y) * yRatio)
		y1 := int(float64(y+1)*yRatio) - 1
		if y1 < y0 {
			y1 = y0
		}
		for x := 0; x < w; x++ {
			x0 := int(float64(x) * xRatio)
			x1 := int(float64(x+1)*xRatio) - 1
			if x1 < x0 {
				x1 = x0
			}
			out.Pix[y*w+x] = clampU8(ii.BoxMean(x0, y0, x1, y1))
		}
	}
	return out
}

// CompressBitmap applies a compression proportion c in [0, 1) as defined
// in the paper: c is the fractional decrement in the length and width of
// the bitmap, so the result is ((1-c)·W)×((1-c)·H). c <= 0 returns a copy.
// It equals Downsample to that size, by the integer area-average kernel
// of DownsampleInto.
func CompressBitmap(r *Raster, c float64) *Raster {
	if c <= 0 {
		return r.Clone()
	}
	w, h := compressedSize(r, c)
	if w > r.W || h > r.H {
		return Downsample(r, w, h)
	}
	out := &Raster{}
	DownsampleInto(out, nil, r, NewIntegral(r), w, h, &Spans{})
	return out
}

// compressedSize is the size CompressBitmap shrinks r to at proportion
// c > 0: c is capped at 0.99 and each side kept at least 8 pixels, so a
// raster under 8 pixels on a side is scaled up.
func compressedSize(r *Raster, c float64) (w, h int) {
	c = min(c, 0.99)
	return max(int(float64(r.W)*(1-c)+0.5), 8), max(int(float64(r.H)*(1-c)+0.5), 8)
}

func resizeBilinear(r *Raster, w, h int) *Raster {
	out := NewRaster(w, h)
	xRatio := float64(r.W-1) / float64(max(w-1, 1))
	yRatio := float64(r.H-1) / float64(max(h-1, 1))
	for y := 0; y < h; y++ {
		fy := float64(y) * yRatio
		y0 := int(fy)
		dy := fy - float64(y0)
		for x := 0; x < w; x++ {
			fx := float64(x) * xRatio
			x0 := int(fx)
			dx := fx - float64(x0)
			v := (1-dx)*(1-dy)*float64(r.At(x0, y0)) +
				dx*(1-dy)*float64(r.At(x0+1, y0)) +
				(1-dx)*dy*float64(r.At(x0, y0+1)) +
				dx*dy*float64(r.At(x0+1, y0+1))
			out.Pix[y*w+x] = clampU8(v)
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
