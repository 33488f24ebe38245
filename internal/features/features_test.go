package features

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bees/internal/imagelib"
)

// testImages returns the reference render of a scene plus a same-scene
// variant and a different-scene render, all from a shared motif pool.
func testImages(seed int64) (ref, similar, other *imagelib.Raster) {
	pool := imagelib.NewMotifPool(1000, 500, 40)
	rng := rand.New(rand.NewSource(seed))
	sceneA := imagelib.GenScene(pool, rng)
	sceneB := imagelib.GenScene(pool, rng)
	ref = sceneA.Render(pool, imagelib.DefaultW, imagelib.DefaultH, imagelib.CanonicalVariant())
	similar = sceneA.Render(pool, imagelib.DefaultW, imagelib.DefaultH, imagelib.RandomVariant(rng))
	other = sceneB.Render(pool, imagelib.DefaultW, imagelib.DefaultH, imagelib.CanonicalVariant())
	return ref, similar, other
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func TestDescriptorBytes(t *testing.T) {
	if AlgORB.DescriptorBytes() != 32 {
		t.Fatalf("ORB descriptor bytes = %d, want 32", AlgORB.DescriptorBytes())
	}
	if AlgSIFT.DescriptorBytes() != 512 {
		t.Fatalf("SIFT descriptor bytes = %d, want 512", AlgSIFT.DescriptorBytes())
	}
	if AlgPCASIFT.DescriptorBytes() != 144 {
		t.Fatalf("PCA-SIFT descriptor bytes = %d, want 144", AlgPCASIFT.DescriptorBytes())
	}
	if Algorithm(0).DescriptorBytes() != 0 {
		t.Fatal("unknown algorithm should report 0 bytes")
	}
}

func TestHammingDistance(t *testing.T) {
	var a, b Descriptor
	if a.Hamming(b) != 0 {
		t.Fatal("identical descriptors must have distance 0")
	}
	b[0] = 0xff
	if got := a.Hamming(b); got != 8 {
		t.Fatalf("Hamming = %d, want 8", got)
	}
	for i := range b {
		a[i] = 0
		b[i] = ^uint64(0)
	}
	if got := a.Hamming(b); got != 256 {
		t.Fatalf("Hamming = %d, want 256", got)
	}
}

func TestHammingSymmetricQuick(t *testing.T) {
	f := func(a0, a1, a2, a3, b0, b1, b2, b3 uint64) bool {
		a := Descriptor{a0, a1, a2, a3}
		b := Descriptor{b0, b1, b2, b3}
		d := a.Hamming(b)
		return d == b.Hamming(a) && d >= 0 && d <= 256 && a.Hamming(a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDescriptorBit(t *testing.T) {
	var d Descriptor
	d[1] = 1 << 5
	if d.Bit(64+5) != 1 {
		t.Fatal("Bit(69) should be set")
	}
	if d.Bit(0) != 0 {
		t.Fatal("Bit(0) should be clear")
	}
}

func TestDetectFASTFindsCorners(t *testing.T) {
	// A bright square on a dark background has 4 corners.
	r := imagelib.NewRaster(64, 64)
	for y := 20; y < 44; y++ {
		for x := 20; x < 44; x++ {
			r.Set(x, y, 220)
		}
	}
	kps := DetectFAST(r, 20)
	if len(kps) < 4 {
		t.Fatalf("found %d keypoints on a square, want >= 4", len(kps))
	}
	for _, kp := range kps {
		nearCorner := false
		for _, c := range [][2]int{{20, 20}, {43, 20}, {20, 43}, {43, 43}} {
			if abs(kp.X-c[0]) <= 3 && abs(kp.Y-c[1]) <= 3 {
				nearCorner = true
			}
		}
		if !nearCorner {
			t.Fatalf("keypoint (%d,%d) not near any square corner", kp.X, kp.Y)
		}
	}
}

func TestDetectFASTUniformImageEmpty(t *testing.T) {
	r := imagelib.NewRaster(64, 64)
	for i := range r.Pix {
		r.Pix[i] = 128
	}
	if kps := DetectFAST(r, 10); len(kps) != 0 {
		t.Fatalf("uniform image produced %d keypoints", len(kps))
	}
}

func TestDetectFASTTinyImage(t *testing.T) {
	if kps := DetectFAST(imagelib.NewRaster(4, 4), 10); kps != nil {
		t.Fatal("tiny image should produce no keypoints")
	}
}

func TestDetectFASTThresholdMonotone(t *testing.T) {
	ref, _, _ := testImages(30)
	lo := len(DetectFAST(ref, 10))
	hi := len(DetectFAST(ref, 40))
	if hi > lo {
		t.Fatalf("higher threshold found more corners: %d > %d", hi, lo)
	}
	if lo == 0 {
		t.Fatal("scene render should contain FAST corners")
	}
}

func TestExtractORBProducesFeatures(t *testing.T) {
	ref, _, _ := testImages(31)
	set := ExtractORB(ref, DefaultConfig())
	if set.Len() < 50 {
		t.Fatalf("extracted %d ORB features, want >= 50", set.Len())
	}
	if set.Len() > DefaultConfig().MaxFeatures {
		t.Fatalf("extracted %d features, above cap", set.Len())
	}
	if len(set.Keypoints) != set.Len() {
		t.Fatal("keypoints and descriptors out of sync")
	}
	if set.Bytes() != set.Len()*32 {
		t.Fatal("Bytes() inconsistent with descriptor count")
	}
}

func TestExtractORBDeterministic(t *testing.T) {
	ref, _, _ := testImages(32)
	a := ExtractORB(ref, DefaultConfig())
	b := ExtractORB(ref, DefaultConfig())
	if a.Len() != b.Len() {
		t.Fatalf("nondeterministic feature count: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Descriptors {
		if a.Descriptors[i] != b.Descriptors[i] {
			t.Fatalf("descriptor %d differs between identical runs", i)
		}
	}
}

func TestExtractORBNilSafety(t *testing.T) {
	var s *BinarySet
	if s.Len() != 0 {
		t.Fatal("nil BinarySet Len should be 0")
	}
}

func TestORBSimilarVsDissimilar(t *testing.T) {
	cfg := DefaultConfig()
	var simSum, disSum float64
	const trials = 8
	for i := int64(0); i < trials; i++ {
		ref, similar, other := testImages(40 + i)
		sr := ExtractORB(ref, cfg)
		ss := ExtractORB(similar, cfg)
		so := ExtractORB(other, cfg)
		simSum += JaccardBinary(sr, ss, DefaultHammingMax)
		disSum += JaccardBinary(sr, so, DefaultHammingMax)
	}
	simAvg, disAvg := simSum/trials, disSum/trials
	t.Logf("ORB similarity: same-scene %.4f, cross-scene %.4f", simAvg, disAvg)
	if simAvg < 3*disAvg {
		t.Fatalf("same-scene similarity %.4f not well above cross-scene %.4f", simAvg, disAvg)
	}
	if simAvg < 0.019 {
		t.Fatalf("same-scene similarity %.4f below EDR threshold range", simAvg)
	}
}

func TestJaccardBinaryBounds(t *testing.T) {
	ref, similar, _ := testImages(50)
	a := ExtractORB(ref, DefaultConfig())
	b := ExtractORB(similar, DefaultConfig())
	j := JaccardBinary(a, b, DefaultHammingMax)
	if j < 0 || j > 1 {
		t.Fatalf("Jaccard out of range: %v", j)
	}
	// Self-similarity is near 1 but can dip slightly below: duplicate
	// descriptors inside one set tie in the nearest-neighbor search and
	// the cross-check then drops all but one of each duplicate group.
	if ident := JaccardBinary(a, a, DefaultHammingMax); ident < 0.95 {
		t.Fatalf("self-Jaccard = %v, want >= 0.95", ident)
	}
}

func TestJaccardBinaryEmptySets(t *testing.T) {
	empty := &BinarySet{}
	ref, _, _ := testImages(51)
	full := ExtractORB(ref, DefaultConfig())
	if JaccardBinary(empty, full, DefaultHammingMax) != 0 {
		t.Fatal("empty-set Jaccard should be 0")
	}
	if JaccardBinary(empty, empty, DefaultHammingMax) != 0 {
		t.Fatal("empty-empty Jaccard should be 0")
	}
}

func TestMatchBinarySymmetricInSize(t *testing.T) {
	ref, similar, _ := testImages(52)
	a := ExtractORB(ref, DefaultConfig())
	b := ExtractORB(similar, DefaultConfig())
	m1 := MatchBinary(a, b, DefaultHammingMax)
	m2 := MatchBinary(b, a, DefaultHammingMax)
	if m1 != m2 {
		t.Fatalf("MatchBinary asymmetric: %d vs %d", m1, m2)
	}
	if m1 > a.Len() || m1 > b.Len() {
		t.Fatal("matching larger than either set")
	}
}

func TestExtractSIFTProducesNormalizedVectors(t *testing.T) {
	ref, _, _ := testImages(53)
	set := ExtractSIFT(ref, DefaultConfig())
	if set.Len() < 50 {
		t.Fatalf("extracted %d SIFT features", set.Len())
	}
	if set.Dim != 128 || set.Algorithm != AlgSIFT {
		t.Fatalf("bad set metadata: dim=%d alg=%v", set.Dim, set.Algorithm)
	}
	for i, v := range set.Vectors {
		var norm float64
		for _, x := range v {
			if x < 0 {
				t.Fatalf("vector %d has negative entry", i)
			}
			norm += float64(x) * float64(x)
		}
		if math.Abs(math.Sqrt(norm)-1) > 1e-3 {
			t.Fatalf("vector %d norm = %v, want 1", i, math.Sqrt(norm))
		}
	}
}

func TestExtractPCASIFTProjects(t *testing.T) {
	ref, _, _ := testImages(54)
	set := ExtractPCASIFT(ref, DefaultConfig())
	if set.Dim != 36 || set.Algorithm != AlgPCASIFT {
		t.Fatalf("bad PCA-SIFT metadata: dim=%d alg=%v", set.Dim, set.Algorithm)
	}
	if set.Len() == 0 {
		t.Fatal("no PCA-SIFT features extracted")
	}
	if set.Bytes() != set.Len()*144 {
		t.Fatal("PCA-SIFT Bytes inconsistent")
	}
}

func TestSIFTSimilarVsDissimilar(t *testing.T) {
	cfg := DefaultConfig()
	ref, similar, other := testImages(55)
	sr := ExtractSIFT(ref, cfg)
	ss := ExtractSIFT(similar, cfg)
	so := ExtractSIFT(other, cfg)
	simJ := JaccardFloat(sr, ss, DefaultRatio)
	disJ := JaccardFloat(sr, so, DefaultRatio)
	t.Logf("SIFT similarity: same-scene %.4f, cross-scene %.4f", simJ, disJ)
	if simJ <= disJ {
		t.Fatalf("SIFT same-scene %.4f <= cross-scene %.4f", simJ, disJ)
	}
}

func TestPCAProjectionPreservesDistancesApproximately(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	mk := func() []float32 {
		v := make([]float32, siftDim)
		for i := range v {
			v[i] = rng.Float32()
		}
		l2norm(v)
		return v
	}
	// An orthonormal projection cannot expand distances.
	for trial := 0; trial < 20; trial++ {
		a, b := mk(), mk()
		pa, pb := projectPCA(a), projectPCA(b)
		// projectPCA renormalizes, so compare angles instead: projected
		// dot product of unit vectors stays in [-1, 1].
		var dot float64
		for i := range pa {
			dot += float64(pa[i]) * float64(pb[i])
		}
		if dot < -1.001 || dot > 1.001 {
			t.Fatalf("projected dot product out of range: %v", dot)
		}
	}
}

func TestJaccardFloatDimensionMismatch(t *testing.T) {
	a := &FloatSet{Dim: 128, Vectors: [][]float32{make([]float32, 128)}}
	b := &FloatSet{Dim: 36, Vectors: [][]float32{make([]float32, 36)}}
	if JaccardFloat(a, b, DefaultRatio) != 0 {
		t.Fatal("mismatched-dimension Jaccard should be 0")
	}
}

func TestAngleBinWraps(t *testing.T) {
	if angleBin(0) != 0 {
		t.Fatal("angleBin(0) != 0")
	}
	if angleBin(2*math.Pi) != 0 {
		t.Fatal("angleBin(2π) should wrap to 0")
	}
	if angleBin(-math.Pi/2) != angleBin(3*math.Pi/2) {
		t.Fatal("negative angles should wrap")
	}
	for theta := -10.0; theta < 10; theta += 0.37 {
		b := angleBin(theta)
		if b < 0 || b >= angleBins {
			t.Fatalf("angleBin(%v) = %d out of range", theta, b)
		}
	}
}

func TestBriefPatternsWithinPatch(t *testing.T) {
	limit := int8(patchRadius + 6) // rotation can push offsets slightly out
	for b := range briefPatterns {
		for i, p := range briefPatterns[b] {
			for _, v := range []int8{p.x1, p.y1, p.x2, p.y2} {
				if v < -limit || v > limit {
					t.Fatalf("pattern bin %d pair %d offset %d outside patch", b, i, v)
				}
			}
		}
	}
}

func TestOrientationPointsTowardBrightSide(t *testing.T) {
	r := imagelib.NewRaster(32, 32)
	// Bright on the right half: centroid points along +x, angle ≈ 0.
	for y := 0; y < 32; y++ {
		for x := 16; x < 32; x++ {
			r.Set(x, y, 200)
		}
	}
	theta := orientation(r, 16, 16)
	if math.Abs(theta) > 0.3 {
		t.Fatalf("orientation = %v, want ~0 for right-bright patch", theta)
	}
}

func TestExtractORBWithCompressedBitmapStillMatches(t *testing.T) {
	// AFE: moderate bitmap compression should retain cross-resolution
	// matchability thanks to the scale pyramid.
	ref, similar, _ := testImages(57)
	cfg := DefaultConfig()
	full := ExtractORB(ref, cfg)
	compressed := ExtractORB(imagelib.CompressBitmap(similar, 0.2), cfg)
	j := JaccardBinary(full, compressed, DefaultHammingMax)
	t.Logf("cross-resolution (c=0.2) Jaccard: %.4f", j)
	if j <= 0 {
		t.Fatal("compressed bitmap lost all matchability")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.MaxFeatures <= 0 || cfg.Levels <= 0 || cfg.ScaleFactor <= 1 {
		t.Fatalf("bad default config: %+v", cfg)
	}
}

func TestDetectPyramidRespectsCap(t *testing.T) {
	ref, _, _ := testImages(58)
	cfg := DefaultConfig()
	cfg.MaxFeatures = 10
	kps, _ := detectPyramid(ref, cfg)
	if len(kps) > 10 {
		t.Fatalf("cap violated: %d keypoints", len(kps))
	}
	// Keypoints must be sorted by score descending.
	for i := 1; i < len(kps); i++ {
		if kps[i].Score > kps[i-1].Score {
			t.Fatal("keypoints not sorted by score")
		}
	}
}

func TestDetectPyramidConfigRepair(t *testing.T) {
	ref, _, _ := testImages(59)
	kps, levels := detectPyramid(ref, Config{FASTThreshold: 18})
	if len(levels) == 0 || len(kps) == 0 {
		t.Fatal("zero-value config fields should be repaired, not fatal")
	}
}

func TestExtractGlobalNormalized(t *testing.T) {
	ref, _, _ := testImages(60)
	g := ExtractGlobal(ref)
	var sum float64
	for _, v := range g {
		if v < 0 {
			t.Fatal("histogram bin negative")
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("histogram sums to %v, want 1", sum)
	}
}

func TestGlobalIntersectIdentity(t *testing.T) {
	ref, _, _ := testImages(61)
	g := ExtractGlobal(ref)
	if got := g.Intersect(g); math.Abs(got-1) > 1e-4 {
		t.Fatalf("self intersection = %v, want 1", got)
	}
}

func TestGlobalIntersectOrdersSimilarity(t *testing.T) {
	ref, similar, other := testImages(62)
	g := ExtractGlobal(ref)
	simScore := g.Intersect(ExtractGlobal(similar))
	// A heavily darkened copy must score below a same-exposure variant.
	dark := ref.Clone()
	for i := range dark.Pix {
		dark.Pix[i] /= 3
	}
	darkScore := g.Intersect(ExtractGlobal(dark))
	if simScore <= darkScore {
		t.Fatalf("same-scene %.3f should beat exposure-shifted copy %.3f", simScore, darkScore)
	}
	_ = other
}

func TestGlobalIntersectSymmetricQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	mk := func() GlobalDescriptor {
		var g GlobalDescriptor
		var sum float32
		for i := range g {
			g[i] = rng.Float32()
			sum += g[i]
		}
		for i := range g {
			g[i] /= sum
		}
		return g
	}
	for i := 0; i < 100; i++ {
		a, b := mk(), mk()
		ab, ba := a.Intersect(b), b.Intersect(a)
		if math.Abs(ab-ba) > 1e-9 || ab < 0 || ab > 1+1e-9 {
			t.Fatalf("intersection broken: %v vs %v", ab, ba)
		}
	}
}

func TestExtractGlobalEmptyRasterSafe(t *testing.T) {
	g := ExtractGlobal(imagelib.NewRaster(1, 1))
	var sum float64
	for _, v := range g {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("1-pixel histogram sums to %v", sum)
	}
}

func TestBriefBitsBalanced(t *testing.T) {
	// Over many scene descriptors, each BRIEF bit should be neither
	// stuck-at-0 nor stuck-at-1 (a degenerate test pair would waste a
	// bit and weaken matching).
	cfg := DefaultConfig()
	counts := make([]int, 256)
	total := 0
	for seed := int64(70); seed < 74; seed++ {
		ref, _, _ := testImages(seed)
		set := ExtractORB(ref, cfg)
		for _, d := range set.Descriptors {
			for b := 0; b < 256; b++ {
				counts[b] += int(d.Bit(b))
			}
		}
		total += set.Len()
	}
	stuck := 0
	for _, c := range counts {
		frac := float64(c) / float64(total)
		if frac < 0.02 || frac > 0.98 {
			stuck++
		}
	}
	if stuck > 16 {
		t.Fatalf("%d/256 BRIEF bits are near-constant", stuck)
	}
}

func TestDescriptorsStableUnderMildNoise(t *testing.T) {
	// The same scene re-rendered with only sensor noise must keep most
	// descriptors within the match radius.
	pool := imagelib.NewMotifPool(1000, 500, 40)
	rng := rand.New(rand.NewSource(75))
	scene := imagelib.GenScene(pool, rng)
	a := scene.Render(pool, imagelib.DefaultW, imagelib.DefaultH, imagelib.CanonicalVariant())
	b := scene.Render(pool, imagelib.DefaultW, imagelib.DefaultH,
		imagelib.Variant{NoiseSigma: 2, Seed: 9})
	cfg := DefaultConfig()
	sa, sb := ExtractORB(a, cfg), ExtractORB(b, cfg)
	matched := MatchBinary(sa, sb, DefaultHammingMax)
	if frac := float64(matched) / float64(min(sa.Len(), sb.Len())); frac < 0.5 {
		t.Fatalf("only %.0f%% of descriptors survived mild noise", 100*frac)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
