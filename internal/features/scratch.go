package features

import (
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
// (core.ExtractAll pools them) or go through ExtractORB or ExtractSIFT,
// which draw from an internal pool. Everything computed on a scratch is
// bit-identical to the allocating reference paths (ExtractORBRef,
// ExtractSIFTRef and DetectFASTRef in ref_test.go), gated by the
// differential suite in extract_diff_test.go.
type ExtractScratch struct {
	// baseII is the integral of the current base raster. Every pyramid
	// level downsamples from the base, and the reference path rebuilds
	// this integral once per level — reusing one build is the single
	// biggest saving in detectPyramid. It also smooths level 0.
	baseII    imagelib.Integral
	baseBuilt bool
	// spans is DownsampleInto's column table, kept across calls.
	spans imagelib.Spans

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

// extractScratchPool backs the drop-in ExtractORB and ExtractSIFT
// wrappers so every caller gets buffer reuse without threading a scratch
// through.
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
//
// The side tests are branch-free: with t ≥ 1 and d a ring pixel minus
// the center, d > t exactly when t−d is negative and d < −t exactly
// when d+t is, so sign(t−d) and sign(d+t) are the bright and dark flags.
// The compass takes min and max (conditional moves, not jumps) of the
// four compass pixels first, so one sign per side decides it. The only
// data-dependent branches left per pixel are the compass verdict and,
// for pixels that pass it, which side holds an arc.
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
	t := threshold
	// Row 2 borders the first scored row and must read as zero.
	clear(rowAt(2))
	for y := 3; y < h-3; y++ {
		cur := rowAt(y)
		clear(cur)
		base := y * w
		rowN, rowC, rowS := pix[base-3*w:][:w], pix[base:][:w], pix[base+3*w:][:w]
		for x := 3; x < w-3; x++ {
			p := base + x
			c := int(rowC[x])
			// Compass quick reject, strictly stronger than (and sound
			// with respect to) fastScoreRef's 2-of-4 test: the complement
			// of a >=9 arc is a contiguous window of <=7 ring pixels,
			// which cannot contain both members of an opposite pair, so a
			// bright (dark) arc must include N or S *and* E or W on the
			// bright (dark) side. Pixels rejected here score 0 in the
			// reference too, so emitted keypoints are unchanged. (N or S)
			// and (E or W) are bright exactly when the dimmer of
			// max(N, S) and max(E, W) is, and dark likewise with min and
			// max swapped.
			pN, pS := int(rowN[x]), int(rowS[x])
			pE, pW := int(rowC[x+3]), int(rowC[x-3])
			bright := min(max(pN, pS), max(pE, pW)) - c
			dark := max(min(pN, pS), min(pE, pW)) - c
			if sign(t-bright)|sign(dark+t) == 0 {
				continue
			}
			// Gather the ring and build per-side bitmasks. A pixel
			// scores >0 iff one side has a circular run of >=9 set bits,
			// which hasRun9 decides in a handful of shift-ANDs -- the
			// score sum then runs only on actual corners.
			var diffs [16]int
			var masks uint32 // bright side in bits 0-15, dark in 16-31
			for i := 0; i < 16; i++ {
				d := int(pix[p+off[i]]) - c
				diffs[i] = d
				masks |= sign(t-d)<<i | sign(d+t)<<(i+16)
			}
			brightM, darkM := masks&0xffff, masks>>16
			// The masks are disjoint and an arc takes 9 of 16 bits, so
			// at most one side can hold one: score that side alone.
			switch {
			case hasRun9(brightM):
				cur[x] = runScore(&diffs, brightM)
			case hasRun9(darkM):
				cur[x] = runScore(&diffs, darkM)
			}
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

// sign returns 1 when v is negative and 0 otherwise, without a branch.
// The conversion sign-extends, so it holds for any int width.
func sign(v int) uint32 { return uint32(uint64(v) >> 63) }

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

// runScore returns the FAST-9 arc score for one side, given the side's
// ring mask, which holds a run of ≥9: the sum of absolute differences
// over that run's pixels, as fastScoreRef's walk reaches at the end of
// the run (capped at 16, its full-circle break). A 16-bit mask has room
// for only one such run, and fastScoreRef's truncated copies of a
// wrapped run score lower than the intact one, so the score is that one
// run's sum. The folds of hasRun9 on the doubled mask mark each start of
// 9 set bits; OR-folding the marks forward by 8 covers exactly the bits
// of the long run and its copies, and folding the doubled word back to
// 16 bits leaves the run itself. Every pixel of one side's run has the
// same sign, so the sum of absolute differences is the absolute value of
// the masked plain sum, taken once without a branch.
func runScore(diffs *[16]int, mask uint32) int {
	m := mask | mask<<16
	st := m & (m >> 1)
	st &= st >> 2
	st &= st >> 4
	st &= st >> 1
	st |= st << 1
	st |= st << 2
	st |= st << 4
	st |= st << 1
	run := st | st>>16
	sum := 0
	for i, d := range diffs {
		sum += d & -int(run>>uint(i)&1)
	}
	neg := sum >> 63 // all ones when sum < 0
	return (sum ^ neg) - neg
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

// detectPyramid builds the scale pyramid, detects FAST keypoints on every
// level, drops points too close to a border for BRIEF, and returns the
// strongest MaxFeatures keypoints; the levels are left in s.levels. It is
// the arena-backed twin of detectPyramidRef (ref_test.go): same level
// geometry, same budget arithmetic, same ordering, but every level
// raster, integral and keypoint slice lives in the scratch, and the
// base-raster integral is built once and shared by every downsample (the
// reference path rebuilds it per level inside Downsample). Returned
// keypoints are backed by s.all.
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
		imagelib.DownsampleInto(&s.rasters[li], &s.lvlII[li], r, &s.baseII, nw, nh, &s.spans)
		cur = &s.rasters[li]
	}
	for len(s.smooth) < len(s.levels) {
		s.smooth = append(s.smooth, imagelib.Raster{})
		s.smoothOK = append(s.smoothOK, false)
	}
	for i := range s.levels {
		s.smoothOK[i] = false
	}
	// Distribute the feature budget across levels proportionally to level
	// area (as OpenCV ORB does). A single global score cap would
	// concentrate every keypoint in the fine levels and leave the coarse
	// levels unrepresented — destroying cross-resolution matching, which
	// AFE bitmap compression depends on.
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

// sortKeypointsInPlace applies the order of sortKeypoints (ref_test.go)
// without the sort.Slice closure allocation. The comparator is a total
// order (score, level, y, x — no two keypoints tie on all four), so the
// unstable sorts both paths use cannot diverge.
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
