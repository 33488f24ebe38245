package features

// FuzzExtractORB drives the scratch-arena extraction pipeline and the
// allocating reference oracle with arbitrary raster bytes and knob
// settings, asserting they never diverge and never panic. The seed corpus
// in testdata/fuzz/FuzzExtractORB runs as part of the normal test suite;
// `make fuzz` explores beyond it.

import (
	"reflect"
	"testing"

	"bees/internal/imagelib"
)

// fuzzRaster shapes raw bytes into a raster: the first two bytes pick the
// dimensions (8..71 per side, small enough to keep the pyramid cheap),
// the rest tile the pixel plane.
func fuzzRaster(raw []byte, wRaw, hRaw byte) *imagelib.Raster {
	w := 8 + int(wRaw)%64
	h := 8 + int(hRaw)%64
	r := imagelib.NewRaster(w, h)
	if len(raw) == 0 {
		return r
	}
	for i := range r.Pix {
		r.Pix[i] = raw[i%len(raw)]
	}
	return r
}

// fuzzConfig maps two fuzz bytes to extraction knobs.
func fuzzConfig(thRaw, knobRaw byte) Config {
	return Config{
		MaxFeatures:   8 + int(knobRaw),
		FASTThreshold: int(thRaw) % 64,
		Levels:        1 + int(knobRaw)%10,
		ScaleFactor:   1.0 + float64(knobRaw%40)/32, // includes the <=1 repair path at 1.0
		BlurRadius:    int(knobRaw) % 4,
	}
}

// addFuzzSeeds adds the inline seeds beyond the checked-in corpora:
// empty plane, a bright dot at the border ring, and a noisy plane at the
// pyramid minimum.
func addFuzzSeeds(f *testing.F) {
	f.Add([]byte{}, byte(16), byte(16), byte(18), byte(3))
	dot := make([]byte, 24*20)
	dot[10*24+3] = 255
	f.Add(dot, byte(16), byte(12), byte(18), byte(1))
	noisy := make([]byte, 64)
	for i := range noisy {
		noisy[i] = byte(i * 37)
	}
	f.Add(noisy, byte(42), byte(42), byte(5), byte(9))
}

func FuzzExtractORB(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte, wRaw, hRaw, thRaw, knobRaw byte) {
		r := fuzzRaster(raw, wRaw, hRaw)
		cfg := fuzzConfig(thRaw, knobRaw)
		want := ExtractORBRef(r, cfg)
		got := ExtractORB(r, cfg)
		if got.Len() != want.Len() {
			t.Fatalf("ExtractORB: %d descriptors, reference %d (w=%d h=%d cfg=%+v)",
				got.Len(), want.Len(), r.W, r.H, cfg)
		}
		for i := range want.Descriptors {
			if got.Descriptors[i] != want.Descriptors[i] {
				t.Fatalf("descriptor[%d] = %x, reference %x", i, got.Descriptors[i], want.Descriptors[i])
			}
			if got.Keypoints[i] != want.Keypoints[i] {
				t.Fatalf("keypoint[%d] = %+v, reference %+v", i, got.Keypoints[i], want.Keypoints[i])
			}
		}
		th := int(thRaw) - 128 // exercise negative and sub-1 thresholds too
		refKps := DetectFASTRef(r, th)
		fastKps := DetectFAST(r, th)
		if len(refKps) != len(fastKps) {
			t.Fatalf("DetectFAST: %d keypoints, reference %d (th=%d)", len(fastKps), len(refKps), th)
		}
		for i := range refKps {
			if refKps[i] != fastKps[i] {
				t.Fatalf("DetectFAST keypoint[%d] = %+v, reference %+v", i, fastKps[i], refKps[i])
			}
		}
	})
}

// FuzzExtractSIFT drives the SIFT and PCA-SIFT baselines, which run the
// arena's detector and pyramid, against the reference pipeline
// (ExtractSIFTRef and its projection) on the same raster and knob space
// as FuzzExtractORB. Its seed corpus is testdata/fuzz/FuzzExtractSIFT.
func FuzzExtractSIFT(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte, wRaw, hRaw, thRaw, knobRaw byte) {
		r := fuzzRaster(raw, wRaw, hRaw)
		cfg := fuzzConfig(thRaw, knobRaw)
		want := ExtractSIFTRef(r, cfg)
		if got := ExtractSIFT(r, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("ExtractSIFT differs from ExtractSIFTRef (w=%d h=%d cfg=%+v)", r.W, r.H, cfg)
		}
		if got := ExtractPCASIFT(r, cfg); !reflect.DeepEqual(got, projectSet(want)) {
			t.Fatalf("ExtractPCASIFT differs from the projected reference (w=%d h=%d cfg=%+v)", r.W, r.H, cfg)
		}
	})
}
