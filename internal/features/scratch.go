package features

import (
	"math/bits"
	"slices"
	"sync"

	"bees/internal/imagelib"
)

// ExtractScratch is the reusable arena for the extraction hot path. One
// ORB extraction needs a score buffer for FAST, a raster and an integral
// per pyramid level, a smoothed raster per touched level, and keypoint
// slices — ~120 MB per 64-image batch when re-made per call (the pre-PR 6
// BENCH_pipeline.json). A scratch keeps all of them alive across images:
// buffers are reshaped in place and only grow, so steady-state extraction
// allocates nothing but the returned BinarySet.
//
// A scratch is not safe for concurrent use; use one per goroutine
// (core.ExtractAll pools them) or go through ExtractORB, which draws from
// an internal pool. Everything computed on a scratch is bit-identical to
// the allocating reference path (ExtractORBRef in ref_test.go,
// DetectFASTRef), gated by the differential suite in extract_diff_test.go.
type ExtractScratch struct {
	// baseII is the integral of the current base raster. Every pyramid
	// level downsamples from the base, and the reference path rebuilds
	// this integral once per level — reusing one build is the single
	// biggest saving in detectPyramid. It also smooths level 0.
	baseII    imagelib.Integral
	baseBuilt bool

	// rasters[i] / lvlII[i] back pyramid level i+1 (level 0 is the input
	// raster itself). DownsampleInto fills both in one traversal.
	rasters []imagelib.Raster
	lvlII   []imagelib.Integral

	// smooth[i] is the box-blurred copy of level i, built lazily for
	// levels that own keypoints, like the reference path.
	smooth   []imagelib.Raster
	smoothOK []bool

	// levels/scales describe the current image's pyramid.
	levels []*imagelib.Raster
	scales []float64

	// rows holds the three rolling FAST score rows (3×w): non-maximum
	// suppression is 3×3, so the full w×h score plane of the reference
	// detector never needs to exist.
	rows []int

	// kps is the per-call detector output buffer; all accumulates the
	// pyramid's keypoints across levels.
	kps []Keypoint
	all []Keypoint
}

// NewExtractScratch returns an empty scratch; buffers grow on first use.
func NewExtractScratch() *ExtractScratch { return &ExtractScratch{} }

// extractScratchPool backs the drop-in ExtractORB wrapper so
// every caller gets buffer reuse without threading a scratch through.
var extractScratchPool = sync.Pool{New: func() any { return NewExtractScratch() }}

func getExtractScratch() *ExtractScratch {
	return extractScratchPool.Get().(*ExtractScratch)
}

func putExtractScratch(s *ExtractScratch) { extractScratchPool.Put(s) }

// detectFAST is the rolling-row FAST-9 detector. It scores one row at a
// time into a 3-row window and suppresses row y as soon as row y+1 is
// complete, emitting keypoints in the same (y, x) scan order as
// DetectFASTRef. Most pixels exit on the 4-point compass test without
// ever gathering the 16-pixel ring.
func (s *ExtractScratch) detectFAST(r *imagelib.Raster, threshold int, out []Keypoint) []Keypoint {
	if threshold < 1 {
		threshold = 1
	}
	w, h := r.W, r.H
	if w < 8 || h < 8 {
		return out
	}
	if cap(s.rows) < 3*w {
		s.rows = make([]int, 3*w)
	}
	rows := s.rows[:3*w]
	rowAt := func(y int) []int {
		i := (y % 3) * w
		return rows[i : i+w : i+w]
	}
	pix := r.Pix
	var off [16]int
	for i, o := range circleOffsets {
		off[i] = o[1]*w + o[0]
	}
	oN, oE, oS, oW := -3*w, 3, 3*w, -3
	// Row 2 borders the first scored row and must read as zero.
	clear(rowAt(2))
	for y := 3; y < h-3; y++ {
		cur := rowAt(y)
		clear(cur)
		base := y * w
		for x := 3; x < w-3; x++ {
			p := base + x
			c := int(pix[p])
			// Compass quick reject, strictly stronger than (and sound
			// with respect to) fastScoreRef's 2-of-4 test: the complement
			// of a >=9 arc is a contiguous window of <=7 ring pixels,
			// which cannot contain both members of an opposite pair, so a
			// bright (dark) arc must include N or S *and* E or W on the
			// bright (dark) side. Pixels rejected here score 0 in the
			// reference too, so emitted keypoints are unchanged.
			dN := int(pix[p+oN]) - c
			dS := int(pix[p+oS]) - c
			dE := int(pix[p+oE]) - c
			dW := int(pix[p+oW]) - c
			if !((dN > threshold || dS > threshold) && (dE > threshold || dW > threshold)) &&
				!((dN < -threshold || dS < -threshold) && (dE < -threshold || dW < -threshold)) {
				continue
			}
			// Gather the ring and build per-side bitmasks. A pixel
			// scores >0 iff one side has a circular run of >=9 set bits,
			// which hasRun9 decides in a handful of shift-ANDs -- the
			// full scoring walk then runs only on actual corners.
			var diffs [16]int
			var brightM, darkM uint32
			for i := 0; i < 16; i++ {
				d := int(pix[p+off[i]]) - c
				diffs[i] = d
				if d > threshold {
					brightM |= 1 << i
				} else if d < -threshold {
					darkM |= 1 << i
				}
			}
			best := 0
			if hasRun9(brightM) {
				best = runScore(&diffs, brightM)
			}
			if hasRun9(darkM) {
				if s := runScore(&diffs, darkM); s > best {
					best = s
				}
			}
			cur[x] = best
		}
		if y > 3 {
			out = nmsRow(rowAt(y-2), rowAt(y-1), cur, y-1, w, out)
		}
	}
	// The last scored row (h-4) borders row h-3, which was never scored.
	last := rowAt(h - 3)
	clear(last)
	if h-4 >= 3 {
		out = nmsRow(rowAt(h-5), rowAt(h-4), last, h-4, w, out)
	}
	return out
}

// hasRun9 reports whether the 16-bit circular mask contains a run of at
// least 9 contiguous set bits. Doubling the mask turns every circular
// run into a linear one; each fold then ANDs the mask with a shifted
// copy of itself, so after shifts of 1+2+4+1 = 8 a surviving bit marks a
// run of 9.
func hasRun9(mask uint32) bool {
	m := mask | mask<<16
	m &= m >> 1
	m &= m >> 2
	m &= m >> 4
	m &= m >> 1
	return m != 0
}

// runScore returns the best FAST-9 arc score for one side, given the
// side's ring mask. It enumerates the maximal set-bit runs of the
// doubled mask with trailing-zero counts instead of walking all 32
// doubled positions like fastScoreRef does: each qualifying run (length
// ≥9, capped at 16 like the reference's full-circle break) contributes
// the sum of absolute differences over its pixels, exactly the
// cumulative sum the reference's walk reaches at the end of that run.
// Truncated boundary copies of a wrapped run score lower than the
// intact copy, so the maximum is unchanged.
func runScore(diffs *[16]int, mask uint32) int {
	m := mask | mask<<16
	best, pos := 0, 0
	for m != 0 {
		tz := bits.TrailingZeros32(m)
		m >>= uint(tz)
		pos += tz
		ones := bits.TrailingZeros32(^m)
		if ones >= fastArc {
			n := ones
			if n > 16 {
				n = 16
			}
			sum := 0
			for j := 0; j < n; j++ {
				d := diffs[(pos+j)&15]
				if d < 0 {
					sum -= d
				} else {
					sum += d
				}
			}
			if sum > best {
				best = sum
			}
		}
		if ones >= 32 {
			break
		}
		m >>= uint(ones)
		pos += ones
	}
	return best
}

// nmsRow suppresses row y against its two neighbor rows and appends the
// survivors. The tie rule matches isLocalMax: an equal-score neighbor
// wins when it lies in the previous row, or to the left in the same row.
func nmsRow(prev, cur, next []int, y, w int, out []Keypoint) []Keypoint {
	for x := 3; x < w-3; x++ {
		sc := cur[x]
		if sc == 0 {
			continue
		}
		if prev[x-1] >= sc || prev[x] >= sc || prev[x+1] >= sc {
			continue
		}
		if cur[x-1] >= sc || cur[x+1] > sc {
			continue
		}
		if next[x-1] > sc || next[x] > sc || next[x+1] > sc {
			continue
		}
		out = append(out, Keypoint{X: x, Y: y, Scale: 1, Score: sc})
	}
	return out
}

// detectPyramid is the arena-backed twin of the package-level
// detectPyramid: same level geometry, same budget arithmetic, same
// ordering, but every level raster, integral and keypoint slice lives in
// the scratch, and the base-raster integral is built once and shared by
// every downsample (the reference path rebuilds it per level inside
// Downsample). Returned keypoints are backed by s.all.
func (s *ExtractScratch) detectPyramid(r *imagelib.Raster, cfg Config) []Keypoint {
	if cfg.Levels < 1 {
		cfg.Levels = 1
	}
	if cfg.ScaleFactor <= 1 {
		cfg.ScaleFactor = 1.25
	}
	if cfg.MaxFeatures <= 0 {
		cfg.MaxFeatures = 300
	}
	// Grow the level stores to their final size before taking pointers,
	// so slice growth cannot move a raster out from under s.levels.
	for len(s.rasters) < cfg.Levels-1 {
		s.rasters = append(s.rasters, imagelib.Raster{})
		s.lvlII = append(s.lvlII, imagelib.Integral{})
	}
	s.levels = s.levels[:0]
	s.scales = s.scales[:0]
	s.baseBuilt = false
	cur := r
	scale := 1.0
	for l := 0; l < cfg.Levels; l++ {
		if cur.W < 2*patchMargin+8 || cur.H < 2*patchMargin+8 {
			break
		}
		s.levels = append(s.levels, cur)
		s.scales = append(s.scales, scale)
		if l == cfg.Levels-1 {
			break // the reference path builds one more raster here and discards it
		}
		scale *= cfg.ScaleFactor
		nw := int(float64(r.W)/scale + 0.5)
		nh := int(float64(r.H)/scale + 0.5)
		if nw < 8 || nh < 8 {
			break
		}
		if !s.baseBuilt {
			s.baseII.Reset(r)
			s.baseBuilt = true
		}
		li := len(s.levels) - 1 // this downsample becomes level li+1
		imagelib.DownsampleInto(&s.rasters[li], &s.lvlII[li], r, &s.baseII, nw, nh)
		cur = &s.rasters[li]
	}
	for len(s.smooth) < len(s.levels) {
		s.smooth = append(s.smooth, imagelib.Raster{})
		s.smoothOK = append(s.smoothOK, false)
	}
	for i := range s.levels {
		s.smoothOK[i] = false
	}
	totalArea := 0
	for _, lvl := range s.levels {
		totalArea += lvl.Pixels()
	}
	all := s.all[:0]
	for li, lvl := range s.levels {
		levelStart := len(all)
		kps := s.detectFAST(lvl, cfg.FASTThreshold, s.kps[:0])
		s.kps = kps
		for _, kp := range kps {
			if kp.X < patchMargin || kp.X >= lvl.W-patchMargin ||
				kp.Y < patchMargin || kp.Y >= lvl.H-patchMargin {
				continue
			}
			kp.Level = li
			kp.Scale = s.scales[li]
			all = append(all, kp)
		}
		per := all[levelStart:]
		sortKeypointsInPlace(per)
		budget := cfg.MaxFeatures * lvl.Pixels() / totalArea
		if budget < 8 {
			budget = 8
		}
		if len(per) > budget {
			all = all[:levelStart+budget]
		}
	}
	sortKeypointsInPlace(all)
	if len(all) > cfg.MaxFeatures {
		all = all[:cfg.MaxFeatures]
	}
	s.all = all
	return all
}

// sortKeypointsInPlace applies the sortKeypoints order without the
// sort.Slice closure allocation. The comparator is a total order (score,
// level, y, x — no two keypoints tie on all four), so the unstable sorts
// both paths use cannot diverge.
func sortKeypointsInPlace(kps []Keypoint) {
	slices.SortFunc(kps, func(a, b Keypoint) int {
		switch {
		case a.Score != b.Score:
			if a.Score > b.Score {
				return -1
			}
			return 1
		case a.Level != b.Level:
			if a.Level < b.Level {
				return -1
			}
			return 1
		case a.Y != b.Y:
			if a.Y < b.Y {
				return -1
			}
			return 1
		case a.X != b.X:
			if a.X < b.X {
				return -1
			}
			return 1
		}
		return 0
	})
}

// smoothedLevel returns the box-blurred copy of pyramid level li,
// computing it on first request (levels without keypoints never pay for
// smoothing, matching the reference path's laziness).
func (s *ExtractScratch) smoothedLevel(li, blurRadius int) *imagelib.Raster {
	if s.smoothOK[li] {
		return &s.smooth[li]
	}
	lvl := s.levels[li]
	var ii *imagelib.Integral
	if li == 0 {
		// A single-level pyramid never downsampled, so the base integral
		// may not exist yet.
		if !s.baseBuilt {
			s.baseII.Reset(lvl)
			s.baseBuilt = true
		}
		ii = &s.baseII
	} else {
		ii = &s.lvlII[li-1] // rasters/lvlII slot i backs level i+1
	}
	imagelib.BoxBlurInto(&s.smooth[li], lvl, blurRadius, ii)
	s.smoothOK[li] = true
	return &s.smooth[li]
}
