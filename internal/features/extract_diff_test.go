package features

// Differential harness for the extraction fast path (PR 6, mirroring the
// PR 5 matcher harness): the scratch-arena pipeline (ExtractORB /
// ExtractORBScratch / DetectFAST) must be bit-identical to the allocating
// reference oracles (ExtractORBRef / DetectFASTRef) — same descriptors,
// same keypoints down to every field, same order. One scratch is reused
// across all cases so stale state from a previous image cannot hide.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bees/internal/dataset"
	"bees/internal/imagelib"
)

// randRaster fills a w×h raster with seeded noise.
func randRaster(rng *rand.Rand, w, h int) *imagelib.Raster {
	r := imagelib.NewRaster(w, h)
	for i := range r.Pix {
		r.Pix[i] = uint8(rng.Intn(256))
	}
	return r
}

// gradientRaster renders a smooth ramp with a few step edges — sparse
// corners, unlike pure noise.
func gradientRaster(w, h int) *imagelib.Raster {
	r := imagelib.NewRaster(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := (x*255)/max(w-1, 1) + (y*127)/max(h-1, 1)
			if x > w/2 {
				v += 60
			}
			if y > h/3 && y < h/2 {
				v -= 80
			}
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			r.Pix[y*w+x] = uint8(v)
		}
	}
	return r
}

// deviceRasters returns the first n (at most 16) extraction inputs of
// the bench's device_batch workload at run seed seed: the images of its
// first batch, dataset.NewDisasterBatch(seed*4099, 16, 2, 0.25). Every
// round starts on a full battery, so the pipeline's AFE stage compresses
// that batch at c = EAC(1) = 0, and CompressBitmap at c = 0 is a plain
// copy of the rendered raster. Later batches of a round drain the phone
// only slightly (c reaches about 0.0125 by the twelfth batch of seed 1),
// so the device extracts every image at or within a few pixels of its
// rendered size.
func deviceRasters(seed int64, n int) []*imagelib.Raster {
	var out []*imagelib.Raster
	for _, im := range dataset.NewDisasterBatch(seed*4099, 16, 2, 0.25).Batch[:n] {
		out = append(out, im.Render().Clone())
	}
	return out
}

// diffRasters is the shared differential corpus: synthetic scenes at the
// canonical and bitmap-compressed sizes, four of device_batch's real
// extraction inputs, noise and gradient rasters at awkward sizes
// (non-multiple-of-8, just above and below the pyramid minimum), and
// degenerate tiny rasters.
func diffRasters(t testing.TB) map[string]*imagelib.Raster {
	t.Helper()
	ref, similar, other := testImages(777)
	rng := rand.New(rand.NewSource(778))
	dev := deviceRasters(1, 4)
	return map[string]*imagelib.Raster{
		"device-0":      dev[0],
		"device-1":      dev[1],
		"device-2":      dev[2],
		"device-3":      dev[3],
		"scene-ref":     ref,
		"scene-similar": similar,
		"scene-other":   other,
		"scene-bitmap":  imagelib.CompressBitmap(ref, 0.1),
		"noise-64x48":   randRaster(rng, 64, 48),
		"noise-51x50":   randRaster(rng, 51, 50),
		"noise-50x51":   randRaster(rng, 50, 51),
		"noise-49x49":   randRaster(rng, 49, 49), // below the pyramid minimum
		"noise-8x8":     randRaster(rng, 8, 8),
		"noise-9x200":   randRaster(rng, 9, 200),
		"gradient":      gradientRaster(120, 90),
		"gradient-odd":  gradientRaster(77, 53),
	}
}

func keypointsEqual(t *testing.T, label string, got, want []Keypoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keypoints, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: keypoint[%d] = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

func binarySetsEqual(t *testing.T, label string, got, want *BinarySet) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d descriptors, reference %d", label, got.Len(), want.Len())
	}
	for i := range want.Descriptors {
		if got.Descriptors[i] != want.Descriptors[i] {
			t.Fatalf("%s: descriptor[%d] = %x, reference %x",
				label, i, got.Descriptors[i], want.Descriptors[i])
		}
	}
	keypointsEqual(t, label, got.Keypoints, want.Keypoints)
}

// diffConfigs covers the extraction knobs, including the degenerate zero
// config whose fields detectPyramid repairs internally.
func diffConfigs() []Config {
	return []Config{
		DefaultConfig(),
		{MaxFeatures: 8, FASTThreshold: 5, Levels: 1, ScaleFactor: 1.05, BlurRadius: 0},
		{MaxFeatures: 50, FASTThreshold: 40, Levels: 4, ScaleFactor: 2.0, BlurRadius: 1},
		{MaxFeatures: 300, FASTThreshold: 10, Levels: 10, ScaleFactor: 1.12, BlurRadius: 3},
		{MaxFeatures: 1000, FASTThreshold: 1, Levels: 6, ScaleFactor: 1.25, BlurRadius: 2},
		{}, // all defaults repaired inside detectPyramid
	}
}

func TestExtractORBDifferential(t *testing.T) {
	scratch := NewExtractScratch() // one arena across every case, like a batch
	for name, r := range diffRasters(t) {
		for ci, cfg := range diffConfigs() {
			label := fmt.Sprintf("%s/cfg%d", name, ci)
			want := ExtractORBRef(r, cfg)
			binarySetsEqual(t, label+"/pooled", ExtractORB(r, cfg), want)
			binarySetsEqual(t, label+"/scratch", ExtractORBScratch(r, cfg, scratch), want)
		}
	}
}

func TestDetectFASTDifferential(t *testing.T) {
	scratch := NewExtractScratch()
	for name, r := range diffRasters(t) {
		for _, th := range []int{-3, 0, 1, 5, 18, 40, 120, 255} {
			label := fmt.Sprintf("%s/th=%d", name, th)
			want := DetectFASTRef(r, th)
			keypointsEqual(t, label, DetectFAST(r, th), want)
			keypointsEqual(t, label+"/scratch", DetectFASTScratch(r, th, scratch), want)
		}
	}
}

// TestExtractSIFTDifferential pins the SIFT baselines, which run the
// arena's detector and pyramid, to the reference pipeline: ExtractSIFT
// and ExtractPCASIFT must be reflect.DeepEqual to ExtractSIFTRef and its
// projection, over the differential corpus and testImages(1).
func TestExtractSIFTDifferential(t *testing.T) {
	check := func(label string, r *imagelib.Raster, cfg Config) {
		want := ExtractSIFTRef(r, cfg)
		if got := ExtractSIFT(r, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ExtractSIFT differs from ExtractSIFTRef (%d vs %d vectors)",
				label, got.Len(), want.Len())
		}
		if got, want := ExtractPCASIFT(r, cfg), projectSet(want); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ExtractPCASIFT differs from the projected reference (%d vs %d vectors)",
				label, got.Len(), want.Len())
		}
	}
	for name, r := range diffRasters(t) {
		for ci, cfg := range diffConfigs() {
			check(fmt.Sprintf("%s/cfg%d", name, ci), r, cfg)
		}
	}
	ref, similar, other := testImages(1)
	for name, r := range map[string]*imagelib.Raster{"ref": ref, "similar": similar, "other": other} {
		check("testImages(1)/"+name, r, DefaultConfig())
	}
}

// TestExtractORBQuick drives both paths with generated noise rasters and
// random knobs via testing/quick.
func TestExtractORBQuick(t *testing.T) {
	scratch := NewExtractScratch()
	check := func(seed int64, wRaw, hRaw, thRaw, levelsRaw uint8, sfRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 8 + int(wRaw)%120
		h := 8 + int(hRaw)%120
		r := randRaster(rng, w, h)
		cfg := Config{
			MaxFeatures:   50 + int(thRaw),
			FASTThreshold: int(thRaw) % 60,
			Levels:        1 + int(levelsRaw)%8,
			ScaleFactor:   1.05 + sfRaw - float64(int(sfRaw)),
			BlurRadius:    int(levelsRaw) % 4,
		}
		want := ExtractORBRef(r, cfg)
		got := ExtractORBScratch(r, cfg, scratch)
		if got.Len() != want.Len() {
			return false
		}
		for i := range want.Descriptors {
			if got.Descriptors[i] != want.Descriptors[i] || got.Keypoints[i] != want.Keypoints[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// dotRaster places a single bright pixel on a dark field: a lone dot is
// the strongest possible FAST corner (all 16 ring pixels darker), so it
// isolates the border contract.
func dotRaster(w, h, x, y int) *imagelib.Raster {
	r := imagelib.NewRaster(w, h)
	r.Set(x, y, 255)
	return r
}

// TestDetectFASTBorderPinned pins the boundary contract from before the
// fast-path rewrite: the detector scores only pixels at least 3 px (the
// FAST ring radius) from every raster edge, so a corner at distance 2 is
// invisible and one at distance 3 is reported. The expectations are
// hardcoded — if either path ever changes the contract, this fails even
// though the two paths still agree with each other.
func TestDetectFASTBorderPinned(t *testing.T) {
	const w, h = 24, 20
	cases := []struct {
		name string
		x, y int
		want bool // keypoint at (x, y) expected?
	}{
		{"inside-corner", 10, 10, true},
		{"left-at-ring", 3, 10, true},
		{"left-inside-ring", 2, 10, false},
		{"right-at-ring", w - 4, 10, true},
		{"right-inside-ring", w - 3, 10, false},
		{"top-at-ring", 10, 3, true},
		{"top-inside-ring", 10, 2, false},
		{"bottom-at-ring", 10, h - 4, true},
		{"bottom-inside-ring", 10, h - 3, false},
		{"corner-at-ring", 3, 3, true},
		{"corner-inside-ring", 2, 2, false},
		{"corner-pixel", 0, 0, false},
	}
	scratch := NewExtractScratch()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := dotRaster(w, h, tc.x, tc.y)
			ref := DetectFASTRef(r, 18)
			fast := DetectFAST(r, 18)
			keypointsEqual(t, "fast-vs-ref", fast, ref)
			keypointsEqual(t, "scratch-vs-ref", DetectFASTScratch(r, 18, scratch), ref)
			if tc.want {
				if len(ref) != 1 || ref[0].X != tc.x || ref[0].Y != tc.y || ref[0].Score <= 0 {
					t.Fatalf("want exactly one keypoint at (%d,%d), got %+v", tc.x, tc.y, ref)
				}
			} else if len(ref) != 0 {
				t.Fatalf("dot at (%d,%d) inside the border ring must be rejected, got %+v",
					tc.x, tc.y, ref)
			}
		})
	}
}

// TestDetectFASTScratchAllocs is the satellite regression gate: detection
// on a reused scratch must stay allocation-free in steady state (≤2
// allocs/op tolerates incidental keypoint-buffer growth).
func TestDetectFASTScratchAllocs(t *testing.T) {
	r := gradientRaster(160, 120)
	s := NewExtractScratch()
	DetectFASTScratch(r, 10, s) // warm the buffers
	avg := testing.AllocsPerRun(20, func() {
		DetectFASTScratch(r, 10, s)
	})
	if avg > 2 {
		t.Fatalf("DetectFASTScratch allocates %.1f/op on a warm scratch, want <= 2", avg)
	}
}

// TestExtractORBScratchAllocs bounds the whole fast extraction pipeline:
// on a warm arena only the returned BinarySet (struct + two slices) may
// allocate, plus a little headroom for pool internals.
func TestExtractORBScratchAllocs(t *testing.T) {
	ref, _, _ := testImages(779)
	s := NewExtractScratch()
	cfg := DefaultConfig()
	ExtractORBScratch(ref, cfg, s) // warm the buffers
	avg := testing.AllocsPerRun(10, func() {
		ExtractORBScratch(ref, cfg, s)
	})
	if avg > 8 {
		t.Fatalf("ExtractORBScratch allocates %.1f/op on a warm arena, want <= 8", avg)
	}
}
