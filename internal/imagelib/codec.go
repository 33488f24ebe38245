package imagelib

import "math"

// Quality compression (AIU) is implemented as a real transform codec:
// 8×8 DCT, JPEG-style luminance quantization, and an entropy-based size
// estimate. The paper's "quality compression proportion" p maps to a JPEG
// quality setting q = 100·(1−p), so p = 0.85 (the fixed proportion BEES
// uses) corresponds to an aggressive but still-legible quality 15.

// dctBasis is the 8-point DCT-II basis matrix: basis[k][n] = α(k)·cos((2n+1)kπ/16).
var dctBasis = func() [8][8]float64 {
	var m [8][8]float64
	for k := 0; k < 8; k++ {
		alpha := math.Sqrt(2.0 / 8.0)
		if k == 0 {
			alpha = math.Sqrt(1.0 / 8.0)
		}
		for n := 0; n < 8; n++ {
			m[k][n] = alpha * math.Cos((2*float64(n)+1)*float64(k)*math.Pi/16)
		}
	}
	return m
}()

// baseQuant is the standard JPEG luminance quantization table (Annex K).
var baseQuant = [64]int{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// quantTable scales the base table for a quality setting in [1, 100],
// following the libjpeg convention.
func quantTable(quality int) [64]int {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	var scale int
	if quality < 50 {
		scale = 5000 / quality
	} else {
		scale = 200 - 2*quality
	}
	var q [64]int
	for i, b := range baseQuant {
		v := (b*scale + 50) / 100
		if v < 1 {
			v = 1
		}
		if v > 255 {
			v = 255
		}
		q[i] = v
	}
	return q
}

// quantTables caches the 100 possible quantization tables. EAAS probes
// EncodedSize once per knob-search step, and every AIU upload sizes its
// raster through the codec, so the table for a given quality is requested
// far more often than it changes: computing all of them once at init
// removes the per-call rescale entirely.
var quantTables = func() [100][64]int {
	var t [100][64]int
	for q := 1; q <= 100; q++ {
		t[q-1] = quantTable(q)
	}
	return t
}()

// cachedQuantTable returns the precomputed table for a quality setting,
// clamped to [1, 100] like quantTable.
func cachedQuantTable(quality int) *[64]int {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	return &quantTables[quality-1]
}

// QualityToSetting converts a quality-compression proportion p ∈ [0, 1)
// into the codec quality setting: q = 100·(1−p)^0.6. The sub-linear
// exponent calibrates the size-vs-proportion curve of the synthetic
// rasters to the paper's: the fixed AIU proportion 0.85 compresses a
// ~700 KB photo to roughly 0.28× with slight SSIM loss, and proportions
// beyond 0.85 degrade quality much faster than they save bytes.
func QualityToSetting(p float64) int {
	if p < 0 {
		p = 0
	}
	if p > 0.99 {
		p = 0.99
	}
	q := int(math.Round(100 * math.Pow(1-p, 0.6)))
	if q < 1 {
		q = 1
	}
	return q
}

// EncodedSize returns the estimated compressed byte size of r at quality
// proportion p. It runs the real DCT + quantization and sums JPEG-style
// entropy-coded bit costs (DC difference categories, AC run/size codes).
// The size-only path never touches the decode machinery: no decoded
// raster is allocated, no dequantize/idct runs, and the quantization
// table comes from the per-quality cache. encodeRef is the oracle it is
// gated against.
func EncodedSize(r *Raster, p float64) int {
	q := cachedQuantTable(QualityToSetting(p))
	bits := 0
	prevDC := 0
	var block, coef [64]float64
	var quant [64]int
	for by := 0; by < r.H; by += 8 {
		for bx := 0; bx < r.W; bx += 8 {
			loadBlock(&block, r, bx, by)
			fdct(&block, &coef)
			for i := 0; i < 64; i++ {
				quant[i] = int(math.Round(coef[i] / float64(q[i])))
			}
			bits += blockBits(&quant, prevDC)
			prevDC = quant[0]
		}
	}
	// Header overhead roughly matching a minimal JFIF header.
	return bits/8 + 360
}

// EncodeDecode compresses r at quality proportion p and returns both the
// estimated byte size and the decoded (lossy) raster, which SSIM uses to
// quantify the quality loss.
func EncodeDecode(r *Raster, p float64) (int, *Raster) {
	q := cachedQuantTable(QualityToSetting(p))
	decoded := NewRaster(r.W, r.H)
	bits := 0
	prevDC := 0
	var block, coef [64]float64
	var quant [64]int
	for by := 0; by < r.H; by += 8 {
		for bx := 0; bx < r.W; bx += 8 {
			loadBlock(&block, r, bx, by)
			fdct(&block, &coef)
			for i := 0; i < 64; i++ {
				quant[i] = int(math.Round(coef[i] / float64(q[i])))
			}
			bits += blockBits(&quant, prevDC)
			prevDC = quant[0]
			for i := 0; i < 64; i++ {
				coef[i] = float64(quant[i] * q[i])
			}
			idct(&coef, &block)
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					decoded.Set(bx+x, by+y, clampU8(block[y*8+x]+128))
				}
			}
		}
	}
	return bits/8 + 360, decoded
}

// loadBlock gathers the level-shifted 8×8 block at (bx, by). Interior
// blocks index the pixel rows directly; blocks touching the right/bottom
// edge fall back to the border-clamping At, matching encodeRef exactly.
func loadBlock(block *[64]float64, r *Raster, bx, by int) {
	if bx+8 <= r.W && by+8 <= r.H {
		for y := 0; y < 8; y++ {
			row := r.Pix[(by+y)*r.W+bx:]
			for x := 0; x < 8; x++ {
				block[y*8+x] = float64(row[x]) - 128
			}
		}
		return
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			block[y*8+x] = float64(r.At(bx+x, by+y)) - 128
		}
	}
}

// fdct computes the 2-D DCT-II of an 8×8 block: F = C·B·Cᵀ.
func fdct(b, out *[64]float64) {
	var tmp [64]float64
	// tmp = C · B  (transform columns)
	for k := 0; k < 8; k++ {
		for x := 0; x < 8; x++ {
			var s float64
			for n := 0; n < 8; n++ {
				s += dctBasis[k][n] * b[n*8+x]
			}
			tmp[k*8+x] = s
		}
	}
	// out = tmp · Cᵀ (transform rows)
	for k := 0; k < 8; k++ {
		for l := 0; l < 8; l++ {
			var s float64
			for n := 0; n < 8; n++ {
				s += tmp[k*8+n] * dctBasis[l][n]
			}
			out[k*8+l] = s
		}
	}
}

// idct computes the inverse 2-D DCT: B = Cᵀ·F·C.
func idct(f, out *[64]float64) {
	var tmp [64]float64
	for n := 0; n < 8; n++ {
		for l := 0; l < 8; l++ {
			var s float64
			for k := 0; k < 8; k++ {
				s += dctBasis[k][n] * f[k*8+l]
			}
			tmp[n*8+l] = s
		}
	}
	for n := 0; n < 8; n++ {
		for m := 0; m < 8; m++ {
			var s float64
			for l := 0; l < 8; l++ {
				s += tmp[n*8+l] * dctBasis[l][m]
			}
			out[n*8+m] = s
		}
	}
}

// zigzag maps the scan order index to the raster index within a block.
var zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// blockBits estimates the entropy-coded bit cost of one quantized block.
func blockBits(quant *[64]int, prevDC int) int {
	bits := 0
	// DC: difference category code (~4-bit Huffman) + magnitude bits.
	diff := quant[0] - prevDC
	bits += 4 + bitCategory(diff)
	// AC: run/size Huffman code (~6 bits average) + magnitude bits, with
	// ZRL codes for zero runs of 16 and a 4-bit EOB.
	run := 0
	for i := 1; i < 64; i++ {
		v := quant[zigzag[i]]
		if v == 0 {
			run++
			continue
		}
		for run >= 16 {
			bits += 11 // ZRL
			run -= 16
		}
		bits += 6 + bitCategory(v)
		run = 0
	}
	bits += 4 // EOB
	return bits
}

// bitCategory returns the JPEG magnitude category of v (number of bits to
// represent |v|).
func bitCategory(v int) int {
	if v < 0 {
		v = -v
	}
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}
