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

// BenchmarkExtractORBDevice extracts what the device extracts in the
// bench's device_batch workload: the 16 images of its first batch at
// run seed 1, at their rendered size (see deviceRasters), one image per
// op on a warm pooled scratch. It also reports how far pixels get
// through the detector on that traffic, over every pyramid level:
// compass/px is the share of scored pixels that pass the compass test,
// even4/compass the share of those whose 8 even ring pixels hold a run
// of 4 on one side (the least any 9-pixel arc leaves there), and
// arc/compass the share that hold a 9-pixel arc.
func BenchmarkExtractORBDevice(b *testing.B) {
	rs := deviceRasters(1, 16)
	cfg := DefaultConfig()
	var st detectorStages
	for _, r := range rs {
		st.add(r, cfg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractORB(rs[i%len(rs)], cfg)
	}
	b.StopTimer()
	b.ReportMetric(float64(st.compass)/float64(st.pixels), "compass/px")
	b.ReportMetric(float64(st.even4)/float64(st.compass), "even4/compass")
	b.ReportMetric(float64(st.arcs)/float64(st.compass), "arc/compass")
}

// detectorStages counts, over the pyramid levels of the rasters added,
// the pixels detectFAST scores, those that pass its compass test, those
// of them with an even-pixel run of 4 on one side, and those whose ring
// holds a 9-pixel arc. It restates the tests plainly so the shipped
// detector carries no counters.
type detectorStages struct{ pixels, compass, even4, arcs int }

func (st *detectorStages) add(r *imagelib.Raster, cfg Config) {
	s := NewExtractScratch()
	s.detectPyramid(r, cfg)
	t := max(cfg.FASTThreshold, 1)
	for _, lvl := range s.levels {
		at := func(x, y int) int { return int(lvl.Pix[y*lvl.W+x]) }
		for y := 3; y < lvl.H-3; y++ {
			for x := 3; x < lvl.W-3; x++ {
				st.pixels++
				c := at(x, y)
				var bright, dark uint32
				for i, o := range circleOffsets {
					d := at(x+o[0], y+o[1]) - c
					if d > t {
						bright |= 1 << i
					} else if d < -t {
						dark |= 1 << i
					}
				}
				// Compass bits: N = 0, E = 4, S = 8, W = 12.
				const ns, ew = 1<<0 | 1<<8, 1<<4 | 1<<12
				if (bright&ns == 0 || bright&ew == 0) && (dark&ns == 0 || dark&ew == 0) {
					continue
				}
				st.compass++
				if hasEvenRun4(bright) || hasEvenRun4(dark) {
					st.even4++
				}
				if hasRun9(bright) || hasRun9(dark) {
					st.arcs++
				}
			}
		}
	}
}

// hasEvenRun4 reports whether ring pixels 0, 2, …, 14 of a 16-bit side
// mask hold a circular run of 4. A 9-pixel arc covers at least 4
// consecutive even pixels, so this is the cheaper second stage a
// detector could run on half the ring before gathering the odd half.
func hasEvenRun4(mask uint32) bool {
	var e uint32
	for i := 0; i < 8; i++ {
		e |= (mask >> (2 * i) & 1) << i
	}
	e |= e << 8
	e &= e >> 1
	e &= e >> 2
	return e != 0
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
