package features

import "bees/internal/imagelib"

// FAST-9 corner detection (Rosten & Drummond): a pixel is a corner when at
// least 9 contiguous pixels on the 16-pixel Bresenham circle of radius 3
// are all brighter than center+threshold or all darker than
// center-threshold.
//
// Two implementations exist. DetectFASTRef is the original
// full-score-plane detector, kept verbatim as the differential oracle
// (the SIFT baselines' pyramid also runs it). The production path is
// ExtractScratch.detectFAST: it reuses the extraction arena (three
// rolling score rows instead of a w×h plane) and rejects most pixels
// with a 4-point compass test before gathering the 16-pixel ring. The
// two are bit-identical — same keypoints, same scores, same order — and
// the suite in extract_diff_test.go gates that equivalence.

// circleOffsets are the 16 (dx, dy) offsets of the radius-3 circle in
// clockwise order starting at 12 o'clock.
var circleOffsets = [16][2]int{
	{0, -3}, {1, -3}, {2, -2}, {3, -1},
	{3, 0}, {3, 1}, {2, 2}, {1, 3},
	{0, 3}, {-1, 3}, {-2, 2}, {-3, 1},
	{-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
}

const fastArc = 9

// DetectFASTRef is the original detector, kept as the bit-identity oracle
// for the arena detector: it scores every pixel into a freshly allocated
// w×h plane, then runs non-maximum suppression over the plane.
func DetectFASTRef(r *imagelib.Raster, threshold int) []Keypoint {
	if threshold < 1 {
		threshold = 1
	}
	w, h := r.W, r.H
	if w < 8 || h < 8 {
		return nil
	}
	scores := make([]int, w*h)
	for y := 3; y < h-3; y++ {
		for x := 3; x < w-3; x++ {
			if s := fastScoreRef(r, x, y, threshold); s > 0 {
				scores[y*w+x] = s
			}
		}
	}
	kps := make([]Keypoint, 0, 256)
	for y := 3; y < h-3; y++ {
		for x := 3; x < w-3; x++ {
			s := scores[y*w+x]
			if s == 0 {
				continue
			}
			if !isLocalMax(scores, w, x, y, s) {
				continue
			}
			kps = append(kps, Keypoint{X: x, Y: y, Scale: 1, Score: s})
		}
	}
	return kps
}

// fastScoreRef returns a positive corner score if (x, y) passes the
// FAST-9 test, else 0. The score is the sum of absolute differences over
// the qualifying arc, which is the conventional ranking function.
func fastScoreRef(r *imagelib.Raster, x, y, threshold int) int {
	c := int(r.Pix[y*r.W+x])
	var diffs [16]int
	for i, off := range circleOffsets {
		diffs[i] = int(r.Pix[(y+off[1])*r.W+x+off[0]]) - c
	}
	// Quick reject using the N/S/E/W pixels: for an arc of 9 to exist, at
	// least 2 of the 4 compass pixels must be beyond the threshold on the
	// same side.
	bright, dark := 0, 0
	for _, i := range [4]int{0, 4, 8, 12} {
		if diffs[i] > threshold {
			bright++
		} else if diffs[i] < -threshold {
			dark++
		}
	}
	if bright < 2 && dark < 2 {
		return 0
	}
	best := 0
	// Scan contiguous runs on the doubled circle.
	for side := 0; side < 2; side++ {
		run, sum := 0, 0
		for i := 0; i < 32; i++ {
			d := diffs[i&15]
			ok := d > threshold
			if side == 1 {
				ok = d < -threshold
			}
			if !ok {
				run, sum = 0, 0
				continue
			}
			run++
			if d < 0 {
				sum -= d
			} else {
				sum += d
			}
			if run >= fastArc && sum > best {
				best = sum
			}
			if run >= 16 {
				break // full circle; avoid double counting
			}
		}
	}
	return best
}

func isLocalMax(scores []int, w, x, y, s int) bool {
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			n := scores[(y+dy)*w+x+dx]
			if n > s {
				return false
			}
			// Break score ties deterministically by position.
			if n == s && (dy < 0 || (dy == 0 && dx < 0)) {
				return false
			}
		}
	}
	return true
}
