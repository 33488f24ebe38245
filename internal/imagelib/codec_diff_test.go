package imagelib

// Differential + property suite for the codec fast path: the size-only
// EncodedSize and the decoding EncodeDecode must agree with each other
// and stay bit-identical to encodeRef (the original single-loop codec) at
// every quality, and the transform pair must satisfy its algebraic
// identities.

import (
	"math"
	"math/rand"
	"testing"
)

// encodeRef is the original single-loop codec kept verbatim as the
// differential oracle for EncodedSize/EncodeDecode: it recomputes the
// quantization table per call and drives both the size estimate and the
// decode from one loop. The codec differential tests assert the fast
// paths above are bit-identical to it at every quality.
func encodeRef(r *Raster, p float64, wantDecoded bool) (int, *Raster) {
	q := quantTable(QualityToSetting(p))
	var decoded *Raster
	if wantDecoded {
		decoded = NewRaster(r.W, r.H)
	}
	bits := 0
	prevDC := 0
	var block, coef [64]float64
	var quant [64]int
	for by := 0; by < r.H; by += 8 {
		for bx := 0; bx < r.W; bx += 8 {
			// Level-shifted block (border-clamped at the edges).
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					block[y*8+x] = float64(r.At(bx+x, by+y)) - 128
				}
			}
			fdct(&block, &coef)
			for i := 0; i < 64; i++ {
				quant[i] = int(math.Round(coef[i] / float64(q[i])))
			}
			bits += blockBits(&quant, prevDC)
			prevDC = quant[0]
			if wantDecoded {
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
	}
	// Header overhead roughly matching a minimal JFIF header.
	size := bits/8 + 360
	return size, decoded
}

// oddScene crops the canonical scene to a non-multiple-of-8 size so the
// border-clamped block gather is exercised on both right and bottom edges.
func oddScene(seed int64) *Raster {
	r := testScene(seed)
	out := NewRaster(r.W-3, r.H-5)
	for y := 0; y < out.H; y++ {
		copy(out.Pix[y*out.W:(y+1)*out.W], r.Pix[y*r.W:y*r.W+out.W])
	}
	return out
}

// TestEncodedSizeMatchesEncodeDecode is the satellite gate: the size-only
// path and the decoding path must report the same byte count for every
// reachable quality setting on a fixed raster. QualityToSetting clamps p
// to [0, 0.99], so the reachable range is [QualityToSetting(0.99), 100];
// the proportions below are the exact inverse of the power-law mapping,
// so every reachable quality (and its cached quantization table) is hit.
func TestEncodedSizeMatchesEncodeDecode(t *testing.T) {
	qMin := QualityToSetting(0.99)
	rasters := map[string]*Raster{"scene": testScene(200), "odd": oddScene(201)}
	for name, r := range rasters {
		seen := make(map[int]bool)
		for q := qMin; q <= 100; q++ {
			p := 1 - math.Pow(float64(q)/100, 1/0.6)
			if got := QualityToSetting(p); got != q {
				t.Fatalf("inverse mapping broke: QualityToSetting(%v) = %d, want %d", p, got, q)
			}
			seen[q] = true
			sizeOnly := EncodedSize(r, p)
			sizeFull, _ := EncodeDecode(r, p)
			if sizeOnly != sizeFull {
				t.Fatalf("%s q=%d: EncodedSize %d != EncodeDecode size %d", name, q, sizeOnly, sizeFull)
			}
			refSize, _ := encodeRef(r, p, false)
			if sizeOnly != refSize {
				t.Fatalf("%s q=%d: EncodedSize %d != encodeRef %d", name, q, sizeOnly, refSize)
			}
		}
		if want := 100 - qMin + 1; len(seen) != want {
			t.Fatalf("%s: covered %d of %d reachable qualities", name, len(seen), want)
		}
	}
}

// TestEncodeDecodeMatchesRef pins the decoded rasters, not just the
// sizes, against the original codec loop.
func TestEncodeDecodeMatchesRef(t *testing.T) {
	for _, r := range []*Raster{testScene(202), oddScene(203)} {
		for _, p := range []float64{0, 0.3, 0.85, 0.99} {
			size, dec := EncodeDecode(r, p)
			refSize, refDec := encodeRef(r, p, true)
			if size != refSize {
				t.Fatalf("p=%v: size %d != ref %d", p, size, refSize)
			}
			if dec.W != refDec.W || dec.H != refDec.H {
				t.Fatalf("p=%v: decoded shape %dx%d != ref %dx%d", p, dec.W, dec.H, refDec.W, refDec.H)
			}
			for i := range refDec.Pix {
				if dec.Pix[i] != refDec.Pix[i] {
					t.Fatalf("p=%v: decoded pixel %d = %d, ref %d", p, i, dec.Pix[i], refDec.Pix[i])
				}
			}
		}
	}
}

// TestCachedQuantTable proves the per-quality cache returns exactly what
// the rescale computes, including the clamped out-of-range settings.
func TestCachedQuantTable(t *testing.T) {
	for q := -5; q <= 110; q++ {
		want := quantTable(q)
		if got := *cachedQuantTable(q); got != want {
			t.Fatalf("cachedQuantTable(%d) = %v, want %v", q, got, want)
		}
	}
}

// TestFDCTDCIsBlockMean pins the DCT-II normalization: with the
// orthonormal basis, the DC coefficient of an 8×8 block equals the block
// mean × 8 (α(0)² · ΣΣ = sum/8 = mean·64/8).
func TestFDCTDCIsBlockMean(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	for trial := 0; trial < 50; trial++ {
		var block, coef [64]float64
		sum := 0.0
		for i := range block {
			block[i] = float64(rng.Intn(256)) - 128
			sum += block[i]
		}
		fdct(&block, &coef)
		want := sum / 64 * 8
		if math.Abs(coef[0]-want) > 1e-9 {
			t.Fatalf("DC = %v, want block mean × 8 = %v", coef[0], want)
		}
	}
}

// TestFDCTIDCTRoundTrip: the unquantized transform pair is an exact
// inverse up to float rounding, far inside the ±0.5 quantization
// tolerance the codec rounds at.
func TestFDCTIDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	for trial := 0; trial < 50; trial++ {
		var block, coef, back [64]float64
		for i := range block {
			block[i] = float64(rng.Intn(256)) - 128
		}
		fdct(&block, &coef)
		idct(&coef, &back)
		for i := range block {
			if math.Abs(back[i]-block[i]) > 1e-9 {
				t.Fatalf("idct(fdct(b))[%d] = %v, want %v", i, back[i], block[i])
			}
		}
	}
}

// TestFDCTParseval: the orthonormal transform preserves energy —
// Σ coef² = Σ pixel² — which catches any basis scaling drift the
// round-trip test alone would cancel out.
func TestFDCTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	var block, coef [64]float64
	eIn, eOut := 0.0, 0.0
	for i := range block {
		block[i] = float64(rng.Intn(256)) - 128
		eIn += block[i] * block[i]
	}
	fdct(&block, &coef)
	for _, c := range coef {
		eOut += c * c
	}
	if math.Abs(eIn-eOut) > 1e-6*eIn {
		t.Fatalf("energy not preserved: in %v out %v", eIn, eOut)
	}
}
