package features

// FAST-9 corner detection (Rosten & Drummond): a pixel is a corner when at
// least 9 contiguous pixels on the 16-pixel Bresenham circle of radius 3
// are all brighter than center+threshold or all darker than
// center-threshold.
//
// One detector ships: ExtractScratch.detectFAST (scratch.go), which
// ORB, SIFT and PCA-SIFT extraction all run through the arena's pyramid.
// It keeps three rolling score rows instead of a w×h plane, rejects most
// pixels with a branch-free 4-point compass test before gathering the
// 16-pixel ring, builds both side masks from sign bits, and scores at
// most one side. DetectFASTRef, the original full-score-plane detector,
// is its test oracle in ref_test.go. The two are bit-identical — same
// keypoints, same scores, same order — gated by extract_diff_test.go and
// the FuzzExtractORB and FuzzExtractSIFT corpora.
//
// On the bench's device_batch inputs (BenchmarkExtractORBDevice: the
// 256×192 rasters its first batch extracts at c = 0), 18.3 % of scored
// pixels pass the compass and 42.8 % of those hold an arc. There, on
// one core of a shared 2-CPU x86-64 box, the branch-free detector and
// the integer-rounding pyramid cut whole-image ORB extraction from
// 11.8 to 8.2 ms per image (medians of eight alternating runs).

// circleOffsets are the 16 (dx, dy) offsets of the radius-3 circle in
// clockwise order starting at 12 o'clock.
var circleOffsets = [16][2]int{
	{0, -3}, {1, -3}, {2, -2}, {3, -1},
	{3, 0}, {3, 1}, {2, 2}, {1, 3},
	{0, 3}, {-1, 3}, {-2, 2}, {-3, 1},
	{-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
}
