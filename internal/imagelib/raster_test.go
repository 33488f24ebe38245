package imagelib

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Mean returns the average intensity in [0, 255].
func (r *Raster) Mean() float64 {
	if len(r.Pix) == 0 {
		return 0
	}
	var sum uint64
	for _, p := range r.Pix {
		sum += uint64(p)
	}
	return float64(sum) / float64(len(r.Pix))
}

func randomRaster(rng *rand.Rand, w, h int) *Raster {
	r := NewRaster(w, h)
	for i := range r.Pix {
		r.Pix[i] = uint8(rng.Intn(256))
	}
	return r
}

func TestNewRasterZeroed(t *testing.T) {
	r := NewRaster(10, 5)
	if r.W != 10 || r.H != 5 || len(r.Pix) != 50 {
		t.Fatalf("unexpected raster geometry: %dx%d len=%d", r.W, r.H, len(r.Pix))
	}
	for i, p := range r.Pix {
		if p != 0 {
			t.Fatalf("pixel %d not zeroed: %d", i, p)
		}
	}
}

func TestNewRasterPanicsOnInvalidSize(t *testing.T) {
	for _, tc := range []struct{ w, h int }{{0, 5}, {5, 0}, {-1, 4}, {4, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRaster(%d,%d) did not panic", tc.w, tc.h)
				}
			}()
			NewRaster(tc.w, tc.h)
		}()
	}
}

func TestAtClampsToBorder(t *testing.T) {
	r := NewRaster(4, 4)
	r.Set(0, 0, 11)
	r.Set(3, 3, 22)
	tests := []struct {
		x, y int
		want uint8
	}{
		{-5, -5, 11},
		{-1, 0, 11},
		{0, -1, 11},
		{10, 10, 22},
		{3, 9, 22},
	}
	for _, tc := range tests {
		if got := r.At(tc.x, tc.y); got != tc.want {
			t.Errorf("At(%d,%d) = %d, want %d", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestSetIgnoresOutOfBounds(t *testing.T) {
	r := NewRaster(3, 3)
	r.Set(-1, 0, 99)
	r.Set(0, -1, 99)
	r.Set(3, 0, 99)
	r.Set(0, 3, 99)
	for i, p := range r.Pix {
		if p != 0 {
			t.Fatalf("out-of-bounds Set modified pixel %d", i)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := randomRaster(rng, 8, 8)
	c := r.Clone()
	c.Pix[0] = r.Pix[0] + 1
	if r.Pix[0] == c.Pix[0] {
		t.Fatal("Clone shares pixel storage with the original")
	}
}

func TestMean(t *testing.T) {
	r := NewRaster(2, 2)
	r.Pix = []uint8{0, 100, 100, 200}
	if got := r.Mean(); got != 100 {
		t.Fatalf("Mean = %v, want 100", got)
	}
}

func TestIntegralMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := randomRaster(rng, 17, 13)
	ii := NewIntegral(r)
	for trial := 0; trial < 200; trial++ {
		x0, y0 := rng.Intn(r.W), rng.Intn(r.H)
		x1, y1 := x0+rng.Intn(r.W-x0), y0+rng.Intn(r.H-y0)
		var want uint64
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				want += uint64(r.Pix[y*r.W+x])
			}
		}
		if got := ii.BoxSum(x0, y0, x1, y1); got != want {
			t.Fatalf("BoxSum(%d,%d,%d,%d) = %d, want %d", x0, y0, x1, y1, got, want)
		}
	}
}

func TestIntegralClampsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randomRaster(rng, 6, 6)
	ii := NewIntegral(r)
	if got, want := ii.BoxSum(-10, -10, 100, 100), ii.BoxSum(0, 0, 5, 5); got != want {
		t.Fatalf("clamped BoxSum = %d, want %d", got, want)
	}
	if got := ii.BoxSum(4, 4, 2, 2); got != 0 {
		t.Fatalf("inverted rectangle BoxSum = %d, want 0", got)
	}
}

func TestBoxMeanUniformImage(t *testing.T) {
	r := NewRaster(10, 10)
	for i := range r.Pix {
		r.Pix[i] = 77
	}
	ii := NewIntegral(r)
	if got := ii.BoxMean(2, 2, 7, 7); got != 77 {
		t.Fatalf("BoxMean = %v, want 77", got)
	}
}

func TestBoxBlurPreservesUniform(t *testing.T) {
	r := NewRaster(16, 16)
	for i := range r.Pix {
		r.Pix[i] = 123
	}
	b := BoxBlur(r, 2)
	for i, p := range b.Pix {
		if p != 123 {
			t.Fatalf("blurred uniform image changed at %d: %d", i, p)
		}
	}
}

func TestBoxBlurSmooths(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := randomRaster(rng, 32, 32)
	b := BoxBlur(r, 2)
	// Blurring must reduce total variation.
	tv := func(img *Raster) (sum int) {
		for y := 0; y < img.H; y++ {
			for x := 1; x < img.W; x++ {
				d := int(img.Pix[y*img.W+x]) - int(img.Pix[y*img.W+x-1])
				if d < 0 {
					d = -d
				}
				sum += d
			}
		}
		return sum
	}
	if tv(b) >= tv(r) {
		t.Fatalf("BoxBlur did not reduce total variation: %d >= %d", tv(b), tv(r))
	}
}

func TestBoxBlurZeroRadiusIsCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := randomRaster(rng, 8, 8)
	b := BoxBlur(r, 0)
	for i := range r.Pix {
		if b.Pix[i] != r.Pix[i] {
			t.Fatal("BoxBlur(r, 0) is not an identity copy")
		}
	}
	b.Pix[0]++
	if b.Pix[0] == r.Pix[0] {
		t.Fatal("BoxBlur(r, 0) aliases the input")
	}
}

func TestIntegralBoxSumNonNegativeQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := randomRaster(rng, 20, 20)
	ii := NewIntegral(r)
	f := func(x0, y0, x1, y1 int8) bool {
		got := ii.BoxSum(int(x0), int(y0), int(x1), int(y1))
		return got <= ii.BoxSum(0, 0, 19, 19)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClampU8(t *testing.T) {
	tests := []struct {
		in   float64
		want uint8
	}{
		{-10, 0}, {0, 0}, {0.4, 0}, {0.6, 1}, {254.4, 254}, {254.6, 255}, {255, 255}, {400, 255},
	}
	for _, tc := range tests {
		if got := clampU8(tc.in); got != tc.want {
			t.Errorf("clampU8(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
