package features

import (
	"testing"

	"bees/internal/imagelib"
)

func benchRaster(b *testing.B) *imagelib.Raster {
	b.Helper()
	ref, _, _ := testImages(900)
	return ref
}

func BenchmarkExtractORB(b *testing.B) {
	r := benchRaster(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractORB(r, cfg)
	}
}

func BenchmarkExtractSIFT(b *testing.B) {
	r := benchRaster(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractSIFT(r, cfg)
	}
}

func BenchmarkExtractPCASIFT(b *testing.B) {
	r := benchRaster(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractPCASIFT(r, cfg)
	}
}

func BenchmarkExtractGlobal(b *testing.B) {
	r := benchRaster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractGlobal(r)
	}
}

// BenchmarkExtractORBRef is the allocating reference pipeline the
// scratch-arena extraction is measured against (same image, same config).
func BenchmarkExtractORBRef(b *testing.B) {
	r := benchRaster(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractORBRef(r, cfg)
	}
}

// BenchmarkExtractORBScratch measures the steady-state cost on a warm
// caller-owned arena — the regime every ExtractAll worker runs in.
func BenchmarkExtractORBScratch(b *testing.B) {
	r := benchRaster(b)
	cfg := DefaultConfig()
	s := NewExtractScratch()
	ExtractORBScratch(r, cfg, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractORBScratch(r, cfg, s)
	}
}

func BenchmarkDetectFAST(b *testing.B) {
	r := benchRaster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DetectFAST(r, 18)
	}
}

// BenchmarkDetectFASTRef is the full-score-plane baseline for the rolling
// three-row detector.
func BenchmarkDetectFASTRef(b *testing.B) {
	r := benchRaster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DetectFASTRef(r, 18)
	}
}

// BenchmarkDetectFASTScratch is detection on a warm caller-owned scratch:
// the allocation-free steady state.
func BenchmarkDetectFASTScratch(b *testing.B) {
	r := benchRaster(b)
	s := NewExtractScratch()
	DetectFASTScratch(r, 18, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DetectFASTScratch(r, 18, s)
	}
}

func BenchmarkJaccardBinary(b *testing.B) {
	ref, similar, _ := testImages(901)
	cfg := DefaultConfig()
	sa := ExtractORB(ref, cfg)
	sb := ExtractORB(similar, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JaccardBinary(sa, sb, DefaultHammingMax)
	}
}

// BenchmarkMatchBinaryRef is the brute-force baseline the prepared-kernel
// benchmarks are measured against (same extracted pair, same radius).
func BenchmarkMatchBinaryRef(b *testing.B) {
	ref, similar, _ := testImages(901)
	cfg := DefaultConfig()
	sa := ExtractORB(ref, cfg)
	sb := ExtractORB(similar, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchBinaryRef(sa, sb, DefaultHammingMax)
	}
}

// BenchmarkMatchBinaryPrepared measures the steady-state cost of one set
// pair through the prepared kernel, sets prepared once outside the loop
// — the regime every batch-graph cell and index re-rank runs in.
func BenchmarkMatchBinaryPrepared(b *testing.B) {
	ref, similar, _ := testImages(901)
	cfg := DefaultConfig()
	pa := ExtractORB(ref, cfg).Prepare()
	pb := ExtractORB(similar, cfg).Prepare()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchPrepared(pa, pb, DefaultHammingMax)
	}
}

// BenchmarkMatchBinaryPreparedUnrelated is BenchmarkMatchBinaryPrepared
// over two unrelated scenes: few descriptors find a neighbor within the
// radius, the regime every CBRD miss and most batch-graph cells pay.
func BenchmarkMatchBinaryPreparedUnrelated(b *testing.B) {
	ref, _, other := testImages(901)
	cfg := DefaultConfig()
	pa := ExtractORB(ref, cfg).Prepare()
	pb := ExtractORB(other, cfg).Prepare()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchPrepared(pa, pb, DefaultHammingMax)
	}
}

// BenchmarkPrepare measures the one-time cost a set pays before entering
// any number of prepared comparisons.
func BenchmarkPrepare(b *testing.B) {
	ref, _, _ := testImages(901)
	sa := ExtractORB(ref, DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preparedSink = sa.Prepare()
	}
}

func BenchmarkHamming(b *testing.B) {
	var d1, d2 Descriptor
	d1[0], d2[3] = 0xdeadbeef, 0xfeedface
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += d1.Hamming(d2)
	}
	_ = sum
}
