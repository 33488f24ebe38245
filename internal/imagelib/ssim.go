package imagelib

// SSIM computes the mean Structural Similarity index between two rasters
// of equal size (Wang et al., 2004), using the standard 8×8 sliding window
// with stride 4 and constants C1 = (0.01·255)², C2 = (0.03·255)².
// The result is in [-1, 1]; identical images score 1.
func SSIM(a, b *Raster) float64 {
	if a.W != b.W || a.H != b.H {
		panic("imagelib: SSIM requires equal-size rasters")
	}
	const (
		win    = 8
		stride = 4
		c1     = (0.01 * 255) * (0.01 * 255)
		c2     = (0.03 * 255) * (0.03 * 255)
	)
	if a.W < win || a.H < win {
		return ssimWindow(a, b, 0, 0, a.W, a.H)
	}
	var total float64
	n := 0
	for y := 0; y+win <= a.H; y += stride {
		for x := 0; x+win <= a.W; x += stride {
			total += ssimWindow(a, b, x, y, win, win)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return total / float64(n)
}

func ssimWindow(a, b *Raster, x0, y0, w, h int) float64 {
	const (
		c1 = (0.01 * 255) * (0.01 * 255)
		c2 = (0.03 * 255) * (0.03 * 255)
	)
	n := float64(w * h)
	var sumA, sumB float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sumA += float64(a.Pix[(y0+y)*a.W+x0+x])
			sumB += float64(b.Pix[(y0+y)*b.W+x0+x])
		}
	}
	muA, muB := sumA/n, sumB/n
	var varA, varB, cov float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			da := float64(a.Pix[(y0+y)*a.W+x0+x]) - muA
			db := float64(b.Pix[(y0+y)*b.W+x0+x]) - muB
			varA += da * da
			varB += db * db
			cov += da * db
		}
	}
	varA /= n - 1
	varB /= n - 1
	cov /= n - 1
	num := (2*muA*muB + c1) * (2*cov + c2)
	den := (muA*muA + muB*muB + c1) * (varA + varB + c2)
	if den == 0 {
		return 1
	}
	return num / den
}
