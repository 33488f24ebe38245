package imagelib

// Differential suite for the allocation-free primitives in scratch.go:
// each *Into / Reset / Scratch method must produce output byte-identical
// to its allocating counterpart, including when one buffer is reused
// across calls with different shapes (big → small → big), which is how
// the extraction arena uses them.

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

func noiseRaster(rng *rand.Rand, w, h int) *Raster {
	r := NewRaster(w, h)
	for i := range r.Pix {
		r.Pix[i] = uint8(rng.Intn(256))
	}
	return r
}

func rastersEqual(t *testing.T, label string, got, want *Raster) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("%s: pixel %d = %d, want %d", label, i, got.Pix[i], want.Pix[i])
		}
	}
}

func integralsEqual(t *testing.T, label string, got, want *Integral) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.W, got.H, want.W, want.H)
	}
	for i := range want.Sum {
		if got.Sum[i] != want.Sum[i] {
			t.Fatalf("%s: sum[%d] = %d, want %d", label, i, got.Sum[i], want.Sum[i])
		}
	}
}

// shapeSequence is the reuse pattern under test: a big raster, a smaller
// one (stale bytes beyond the new length must not leak), then big again.
func shapeSequence(rng *rand.Rand) []*Raster {
	return []*Raster{
		noiseRaster(rng, 96, 70),
		noiseRaster(rng, 33, 41),
		noiseRaster(rng, 8, 8),
		noiseRaster(rng, 120, 64),
	}
}

func TestIntegralResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	var ii Integral
	for _, r := range shapeSequence(rng) {
		ii.Reset(r)
		integralsEqual(t, "Reset", &ii, NewIntegral(r))
	}
}

func TestDownsampleIntoMatchesDownsample(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	var dst Raster
	var dstII Integral
	var sp Spans
	for _, r := range shapeSequence(rng) {
		srcII := NewIntegral(r)
		for _, shape := range [][2]int{{r.W, r.H}, {r.W / 2, r.H / 2}, {8, 8}, {r.W - 1, r.H}} {
			w, h := shape[0], shape[1]
			if w < 1 || h < 1 {
				continue
			}
			want := Downsample(r, w, h)
			DownsampleInto(&dst, &dstII, r, srcII, w, h, &sp)
			rastersEqual(t, "DownsampleInto", &dst, want)
			integralsEqual(t, "DownsampleInto fused integral", &dstII, NewIntegral(want))
			// The nil-integral variant must produce the same pixels.
			DownsampleInto(&dst, nil, r, srcII, w, h, &sp)
			rastersEqual(t, "DownsampleInto (nil integral)", &dst, want)
		}
	}
}

func TestDownsampleIntoRejectsUpscale(t *testing.T) {
	r := NewRaster(16, 16)
	ii := NewIntegral(r)
	var dst Raster
	defer func() {
		if recover() == nil {
			t.Fatal("DownsampleInto on an upscale must panic")
		}
	}()
	DownsampleInto(&dst, nil, r, ii, 17, 16, &Spans{})
}

func TestBoxBlurIntoMatchesBoxBlur(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	var dst Raster
	for _, r := range shapeSequence(rng) {
		ii := NewIntegral(r)
		for _, k := range []int{-1, 0, 1, 2, 5} {
			BoxBlurInto(&dst, r, k, ii)
			rastersEqual(t, "BoxBlurInto", &dst, BoxBlur(r, k))
		}
	}
}

// compressRef is the float reference for both CompressBitmap paths: the
// proportion's size rule spelled out, then Downsample.
func compressRef(r *Raster, c float64) *Raster {
	if c <= 0 {
		return r.Clone()
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
	return Downsample(r, w, h)
}

func TestScratchCompressBitmapMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	var s Scratch
	cs := []float64{-0.5, 0, 0.1, 0.35, 0.72, 0.99, 1.3}
	for _, r := range shapeSequence(rng) {
		for _, c := range cs {
			want := compressRef(r, c)
			rastersEqual(t, "Scratch.CompressBitmap", s.CompressBitmap(r, c), want)
			rastersEqual(t, "CompressBitmap", CompressBitmap(r, c), want)
		}
	}
	// Sub-8px source forces the upscale-clamp fallback path.
	tiny := noiseRaster(rng, 5, 6)
	for _, c := range cs {
		want := compressRef(tiny, c)
		rastersEqual(t, "Scratch.CompressBitmap tiny", s.CompressBitmap(tiny, c), want)
		rastersEqual(t, "CompressBitmap tiny", CompressBitmap(tiny, c), want)
	}
}

// TestScratchCompressBitmapAllocs pins the steady-state allocation
// behavior the extraction pipeline relies on: zero allocs once warm.
func TestScratchCompressBitmapAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	r := noiseRaster(rng, 128, 96)
	var s Scratch
	s.CompressBitmap(r, 0.3) // warm
	avg := testing.AllocsPerRun(20, func() {
		s.CompressBitmap(r, 0.3)
	})
	if avg > 0 {
		t.Fatalf("Scratch.CompressBitmap allocates %.1f/op on a warm scratch, want 0", avg)
	}
}

// roundMismatch checks roundDiv(sum, n) against the exact integer
// quotient ⌊(2·sum+n)/2n⌋ and against both float roundings it replaces:
// Downsample's clampU8 and BoxBlur's +0.5 truncation. It returns a
// description of the first disagreement, or "".
func roundMismatch(sum, n, m uint64) string {
	got := roundDiv(sum, n, m)
	exact := (2*sum + n) / (2 * n)
	mean := float64(sum) / float64(n)
	if uint64(got) != exact || got != clampU8(mean) || got != uint8(mean+0.5) {
		return fmt.Sprintf("roundDiv(%d, %d) = %d; exact %d, clampU8 %d, +0.5 %d",
			sum, n, got, exact, clampU8(mean), uint8(mean+0.5))
	}
	return ""
}

// tieSums returns the sums that decide rounding for box size n: 0, 255n,
// and for each half-way point (2k+1)·n/2 between two pixel values the
// sum nearest it and the sums one below and one above.
func tieSums(n uint64, out []uint64) []uint64 {
	out = append(out[:0], 0, 255*n)
	for k := uint64(0); k < 255; k++ {
		s := (2*k + 1) * n / 2
		out = append(out, s-1, s, s+1)
	}
	return out
}

// TestRoundDivExact pins the integer rounding of DownsampleInto and
// BoxBlurInto to the float rounding of Downsample and BoxBlur: every sum
// for every box size up to 64 (the pyramid and the default AFE stay far
// below that), the sums around every rounding tie for every box size up
// to 2¹⁶ (CompressBitmap at c = 0.99 on rasters up to 2048²), and the
// same tie sums for box sizes at the edge of maxRoundDivisor.
func TestRoundDivExact(t *testing.T) {
	for n := uint64(1); n <= 64; n++ {
		m := roundRecip(n)
		for sum := uint64(0); sum <= 255*n; sum++ {
			if msg := roundMismatch(sum, n, m); msg != "" {
				t.Fatal(msg)
			}
		}
	}
	var sums []uint64
	check := func(n uint64) {
		m := roundRecip(n)
		sums = tieSums(n, sums)
		for _, sum := range sums {
			if msg := roundMismatch(sum, n, m); msg != "" {
				t.Fatal(msg)
			}
		}
	}
	for n := uint64(65); n <= 1<<16; n++ {
		check(n)
	}
	for n := uint64(maxRoundDivisor - 64); n <= maxRoundDivisor; n++ {
		check(n)
	}
}

// TestRoundDivBound pins maxRoundDivisor to its defining inequality
// (the largest n with 1022·n² < 2⁶⁴) and checks that roundRecip refuses
// box sizes outside [1, maxRoundDivisor] instead of rounding wrongly.
func TestRoundDivBound(t *testing.T) {
	limit := new(big.Int).Lsh(big.NewInt(1), 64)
	at := func(n int64) *big.Int {
		v := big.NewInt(n)
		return v.Mul(v, v).Mul(v, big.NewInt(1022))
	}
	if at(maxRoundDivisor).Cmp(limit) >= 0 || at(maxRoundDivisor+1).Cmp(limit) < 0 {
		t.Fatalf("maxRoundDivisor %d is not the largest n with 1022·n² < 2⁶⁴", maxRoundDivisor)
	}
	for _, n := range []uint64{0, maxRoundDivisor + 1, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("roundRecip(%d) must panic", n)
				}
			}()
			roundRecip(n)
		}()
	}
}
