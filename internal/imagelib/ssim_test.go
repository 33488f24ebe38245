package imagelib

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSSIMIdentical(t *testing.T) {
	r := testScene(200)
	if got := SSIM(r, r); math.Abs(got-1) > 1e-9 {
		t.Fatalf("SSIM(r, r) = %v, want 1", got)
	}
}

func TestSSIMSymmetric(t *testing.T) {
	a := testScene(201)
	b := testScene(202)
	if d := math.Abs(SSIM(a, b) - SSIM(b, a)); d > 1e-9 {
		t.Fatalf("SSIM not symmetric, diff %v", d)
	}
}

func TestSSIMRange(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomRaster(r, 24, 24)
		b := randomRaster(r, 24, 24)
		s := SSIM(a, b)
		return s >= -1.0001 && s <= 1.0001
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSSIMOrdersDistortions(t *testing.T) {
	r := testScene(203)
	mild := r.Clone()
	severe := r.Clone()
	rng := rand.New(rand.NewSource(21))
	for i := range mild.Pix {
		mild.Pix[i] = clampU8(float64(mild.Pix[i]) + rng.NormFloat64()*3)
		severe.Pix[i] = clampU8(float64(severe.Pix[i]) + rng.NormFloat64()*40)
	}
	sMild, sSevere := SSIM(r, mild), SSIM(r, severe)
	if sMild <= sSevere {
		t.Fatalf("SSIM ordering wrong: mild %v <= severe %v", sMild, sSevere)
	}
}

func TestSSIMPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SSIM with mismatched sizes did not panic")
		}
	}()
	SSIM(NewRaster(8, 8), NewRaster(9, 8))
}

func TestSSIMSmallImages(t *testing.T) {
	a := NewRaster(4, 4)
	if got := SSIM(a, a.Clone()); math.Abs(got-1) > 1e-9 {
		t.Fatalf("small-image SSIM = %v, want 1", got)
	}
}

func TestSizeModelAnchorsNominalBytes(t *testing.T) {
	r := testScene(206)
	m := NewSizeModel(r)
	got := m.Bytes(r, 0)
	if math.Abs(float64(got-NominalBytes)) > float64(NominalBytes)/100 {
		t.Fatalf("uncompressed Bytes = %d, want ~%d", got, NominalBytes)
	}
}

func TestSizeModelQualityCompressionShrinks(t *testing.T) {
	r := testScene(207)
	m := NewSizeModel(r)
	b0 := m.Bytes(r, 0)
	b85 := m.Bytes(r, 0.85)
	if b85 >= b0/2 {
		t.Fatalf("quality 0.85 bytes = %d, want well under %d/2", b85, b0)
	}
}

func TestSizeModelResolutionCompressionShrinks(t *testing.T) {
	r := testScene(208)
	m := NewSizeModel(r)
	half := CompressBitmap(r, 0.5)
	bFull := m.Bytes(r, 0)
	bHalf := m.Bytes(half, 0)
	if bHalf >= bFull/2 {
		t.Fatalf("half-resolution bytes = %d, want < %d/2", bHalf, bFull)
	}
}

func TestSizeModelZeroValueSafe(t *testing.T) {
	var m SizeModel
	if got := m.Bytes(testScene(209), 0.3); got != NominalBytes {
		t.Fatalf("zero-value SizeModel Bytes = %d, want %d", got, NominalBytes)
	}
}

func TestPixelsAt(t *testing.T) {
	if got := PixelsAt(0); got != NominalPixels {
		t.Fatalf("PixelsAt(0) = %d", got)
	}
	if got := PixelsAt(0.5); got != int(float64(NominalPixels)*0.25) {
		t.Fatalf("PixelsAt(0.5) = %d", got)
	}
	if PixelsAt(2) <= 0 {
		t.Fatal("PixelsAt must stay positive for out-of-range input")
	}
}
