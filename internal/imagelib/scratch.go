package imagelib

// Allocation-free variants of the resize/blur primitives on the
// extraction hot path. Each *Into function writes into caller-owned
// buffers that are reshaped in place, producing output byte-identical to
// its allocating counterpart (Downsample, BoxBlur, NewIntegral); the
// differential suite in internal/features gates that equivalence. See
// DESIGN.md, "Extraction fast path".

import (
	"math/bits"
	"slices"
)

// Reshape resizes r to w×h in place, reusing the pixel buffer when its
// capacity suffices. The pixels are left uninitialized; callers are
// expected to overwrite every one.
func (r *Raster) Reshape(w, h int) {
	if w <= 0 || h <= 0 {
		panic("imagelib: Reshape to non-positive size")
	}
	r.W, r.H = w, h
	if cap(r.Pix) < w*h {
		r.Pix = make([]uint8, w*h)
	} else {
		r.Pix = r.Pix[:w*h]
	}
}

// Reset rebuilds the summed-area table for r in place, reusing the Sum
// buffer when possible. The result is identical to NewIntegral(r).
func (ii *Integral) Reset(r *Raster) {
	w, h := r.W, r.H
	ii.W, ii.H = w, h
	stride := w + 1
	n := stride * (h + 1)
	if cap(ii.Sum) < n {
		ii.Sum = make([]uint64, n)
	} else {
		ii.Sum = ii.Sum[:n]
		// Only the top row and left column stay untouched by the fill
		// loop below; zero them explicitly instead of the whole buffer.
		for x := 0; x < stride; x++ {
			ii.Sum[x] = 0
		}
		for y := 1; y <= h; y++ {
			ii.Sum[y*stride] = 0
		}
	}
	for y := 0; y < h; y++ {
		var rowSum uint64
		row := r.Pix[y*w : y*w+w]
		for x, p := range row {
			rowSum += uint64(p)
			ii.Sum[(y+1)*stride+(x+1)] = ii.Sum[y*stride+(x+1)] + rowSum
		}
	}
}

// Spans is DownsampleInto's reusable column table. The source columns
// each output column averages depend only on the two widths, so one
// call computes them once instead of once per output row; keeping the
// table across calls lets steady-state extraction downsample without
// allocating.
type Spans struct {
	cols   []colSpan
	widths []uint64 // the call's distinct column widths, indexed by colSpan.k
	ns     []uint64 // per row height: the box size of each width class
	ms     []uint64 // and its roundRecip
}

// colSpan is one output column: source columns [lo, hi), whose width is
// widths[k].
type colSpan struct{ lo, hi, k int32 }

// setColumns fills the column table for a srcW → w downsample with the
// same float spans Downsample computes per pixel.
func (sp *Spans) setColumns(srcW, w int) {
	xRatio := float64(srcW) / float64(w)
	sp.cols = sp.cols[:0]
	sp.widths = sp.widths[:0]
	for x := 0; x < w; x++ {
		x0 := int(float64(x) * xRatio)
		x1 := int(float64(x+1)*xRatio) - 1
		if x1 < x0 {
			x1 = x0
		}
		wd := uint64(x1 - x0 + 1)
		k := slices.Index(sp.widths, wd)
		if k < 0 {
			k = len(sp.widths)
			sp.widths = append(sp.widths, wd)
		}
		sp.cols = append(sp.cols, colSpan{lo: int32(x0), hi: int32(x1 + 1), k: int32(k)})
	}
	sp.ns = slices.Grow(sp.ns[:0], len(sp.widths))[:len(sp.widths)]
	sp.ms = slices.Grow(sp.ms[:0], len(sp.widths))[:len(sp.widths)]
}

// setRows sets the box size and reciprocal of every width class for
// boxes of the given height.
func (sp *Spans) setRows(rows uint64) {
	for k, wd := range sp.widths {
		sp.ns[k] = wd * rows
		sp.ms[k] = roundRecip(wd * rows)
	}
}

// maxRoundDivisor is the largest box size n for which roundDiv is exact:
// the largest n with 1022·n² < 2⁶⁴, about 1.34·10⁸ pixels. No caller
// comes near it: CompressBitmap clamps c to 0.99, so its boxes stay under
// about 10⁴ pixels on any raster, a pyramid level's boxes are a few
// pixels, and BoxBlurInto's interior box fits inside its raster, so it
// reaches the bound only on a raster of over 11,500² pixels. roundRecip
// panics beyond it rather than round wrongly.
const maxRoundDivisor = 134_348_992

// roundRecip returns the reciprocal roundDiv multiplies by for box size
// n: ⌈2⁶⁴/2n⌉. It panics when n exceeds maxRoundDivisor.
func roundRecip(n uint64) uint64 {
	if n-1 >= maxRoundDivisor {
		panic("imagelib: box size outside the exact-rounding range")
	}
	return ^uint64(0)/(2*n) + 1
}

// roundDiv returns ⌊sum/n + ½⌋, the mean of a box of n pixels rounded
// half up, given m = roundRecip(n). For a box of 8-bit pixels
// (sum ≤ 255n) it equals clampU8(float64(sum)/float64(n)) and
// uint8(float64(sum)/float64(n)+0.5), the float rounding of Downsample
// and BoxBlur, with one multiply instead of a division.
//
// It computes ⌊(2·sum+n)/(2n)⌋ as the high word of (2·sum+n)·m. With
// m = 2⁶⁴/2n + e/2n for some 0 ≤ e < 2n, the product over 2⁶⁴ exceeds
// the true quotient by (2·sum+n)·e/(2n·2⁶⁴). The quotient's fractional
// part is a multiple of 1/2n and at most 1 − 1/2n, so the floor is exact
// while (2·sum+n)·e < 2⁶⁴; with 2·sum+n ≤ 511n and e < 2n that holds
// whenever 1022·n² < 2⁶⁴, which maxRoundDivisor states.
func roundDiv(sum, n, m uint64) uint8 {
	q, _ := bits.Mul64(2*sum+n, m)
	return uint8(q)
}

// DownsampleInto area-averages src to w×h into dst using a prebuilt
// integral of src, and — when dstII is non-nil — builds dst's own
// summed-area table row by row as it goes, so each level of a pyramid
// is traversed once. sp holds the column table between calls. Requires
// w ≤ src.W and h ≤ src.H (no upscaling) and srcII built over src.
// Output pixels are byte-identical to Downsample(src, w, h), and dstII
// ends identical to NewIntegral(dst).
func DownsampleInto(dst *Raster, dstII *Integral, src *Raster, srcII *Integral, w, h int, sp *Spans) {
	if w > src.W || h > src.H {
		panic("imagelib: DownsampleInto cannot upscale")
	}
	dst.Reshape(w, h)
	var stride int
	if dstII != nil {
		dstII.W, dstII.H = w, h
		stride = w + 1
		n := stride * (h + 1)
		if cap(dstII.Sum) < n {
			dstII.Sum = make([]uint64, n)
		} else {
			dstII.Sum = dstII.Sum[:n]
			for x := 0; x < stride; x++ {
				dstII.Sum[x] = 0
			}
			for y := 1; y <= h; y++ {
				dstII.Sum[y*stride] = 0
			}
		}
	}
	sp.setColumns(src.W, w)
	cols := sp.cols
	yRatio := float64(src.H) / float64(h)
	// Every source box is in bounds (no upscale), so the summed-area
	// lookups index the two bracketing integral rows directly instead of
	// going through BoxMean's clamping. Same sums and, by roundDiv's
	// exactness, the same rounded means.
	srcStride := src.W + 1
	var lastRows uint64
	for y := 0; y < h; y++ {
		y0 := int(float64(y) * yRatio)
		y1 := int(float64(y+1)*yRatio) - 1
		if y1 < y0 {
			y1 = y0
		}
		top := srcII.Sum[y0*srcStride : y0*srcStride+srcStride]
		bot := srcII.Sum[(y1+1)*srcStride : (y1+1)*srcStride+srcStride]
		if rows := uint64(y1 - y0 + 1); rows != lastRows {
			sp.setRows(rows)
			lastRows = rows
		}
		ns, ms := sp.ns, sp.ms
		out := dst.Pix[y*w : y*w+w]
		for x, c := range cols {
			sum := bot[c.hi] - top[c.hi] - bot[c.lo] + top[c.lo]
			out[x] = roundDiv(sum, ns[c.k], ms[c.k])
		}
		if dstII != nil {
			prev := dstII.Sum[y*stride+1 : y*stride+stride]
			cur := dstII.Sum[(y+1)*stride+1 : (y+1)*stride+stride]
			var rowSum uint64
			for x, v := range out {
				rowSum += uint64(v)
				cur[x] = prev[x] + rowSum
			}
		}
	}
}

// BoxBlurInto smooths src with a (2k+1)×(2k+1) box filter into dst, using
// a prebuilt integral of src instead of building one per call. Output is
// byte-identical to BoxBlur(src, k).
func BoxBlurInto(dst *Raster, src *Raster, k int, ii *Integral) {
	dst.Reshape(src.W, src.H)
	if k <= 0 {
		copy(dst.Pix, src.Pix)
		return
	}
	w, h := src.W, src.H
	stride := w + 1
	// Interior pixels exist only when the raster is wider and taller than
	// the box; only then is the reciprocal needed.
	n := uint64((2*k + 1) * (2*k + 1))
	var m uint64
	if w > 2*k && h > 2*k {
		m = roundRecip(n)
	}
	for y := 0; y < h; y++ {
		row := dst.Pix[y*w : y*w+w]
		if y < k || y+k >= h {
			// Border rows keep BoxMean's clamping.
			for x := 0; x < w; x++ {
				row[x] = uint8(ii.BoxMean(x-k, y-k, x+k, y+k) + 0.5)
			}
			continue
		}
		top := ii.Sum[(y-k)*stride : (y-k)*stride+stride]
		bot := ii.Sum[(y+k+1)*stride : (y+k+1)*stride+stride]
		for x := 0; x < k && x < w; x++ {
			row[x] = uint8(ii.BoxMean(x-k, y-k, x+k, y+k) + 0.5)
		}
		// Interior pixels: the (2k+1)² box never clips, so the four
		// summed-area corners come straight off the bracketing rows with
		// a constant box size — same sums, and roundDiv rounds them
		// exactly as BoxMean's float division does.
		for x := k; x+k < w; x++ {
			sum := bot[x+k+1] - top[x+k+1] - bot[x-k] + top[x-k]
			row[x] = roundDiv(sum, n, m)
		}
		for x := w - k; x < w; x++ {
			if x < k {
				continue // already emitted by the left-border loop
			}
			row[x] = uint8(ii.BoxMean(x-k, y-k, x+k, y+k) + 0.5)
		}
	}
}

// Scratch bundles the reusable buffers for the resize side of the
// extraction hot path (the AFE bitmap compression that precedes ORB).
// The raster returned by CompressBitmap aliases the scratch and is valid
// until the next call.
type Scratch struct {
	ii    Integral
	out   Raster
	spans Spans
}

// CompressBitmap is the allocation-free variant of CompressBitmap: same
// proportion semantics, byte-identical output, but the result reuses the
// scratch raster. Falls back to the allocating path for the rare shapes
// the fast path does not cover (upscale clamps on sub-8px rasters).
func (s *Scratch) CompressBitmap(r *Raster, c float64) *Raster {
	if c <= 0 {
		s.out.Reshape(r.W, r.H)
		copy(s.out.Pix, r.Pix)
		return &s.out
	}
	if c >= 0.99 {
		c = 0.99
	}
	w := int(float64(r.W)*(1-c) + 0.5)
	h := int(float64(r.H)*(1-c) + 0.5)
	if w < 8 {
		w = 8
	}
	if h < 8 {
		h = 8
	}
	if w > r.W || h > r.H {
		return Downsample(r, w, h)
	}
	s.ii.Reset(r)
	DownsampleInto(&s.out, nil, r, &s.ii, w, h, &s.spans)
	return &s.out
}
