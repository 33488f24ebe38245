package harness

import (
	"bees/internal/dataset"
	"bees/internal/imagelib"
	"bees/internal/metrics"
)

// Fig5Options parameterizes the compression studies of Fig. 5: the paper
// uploads 100/200/300 images at each compression proportion and records
// the bandwidth overhead (plus SSIM for quality compression).
type Fig5Options struct {
	Seed        int64
	ImageCounts []int
	Proportions []float64
}

// DefaultFig5Options returns a laptop-scale configuration.
func DefaultFig5Options() Fig5Options {
	return Fig5Options{
		Seed:        51,
		ImageCounts: []int{100, 200, 300},
		Proportions: []float64{0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95},
	}
}

// Fig5Point is one (count, proportion) cell of Fig. 5.
type Fig5Point struct {
	Images     int
	Proportion float64
	Bytes      int
	SSIM       float64 // only set for quality compression
}

// RunFig5Quality measures total upload bytes and mean SSIM under quality
// compression (Fig. 5(a)).
func RunFig5Quality(opts Fig5Options) []Fig5Point {
	return runFig5(opts, true)
}

// RunFig5Resolution measures total upload bytes under resolution
// compression (Fig. 5(b)).
func RunFig5Resolution(opts Fig5Options) []Fig5Point {
	return runFig5(opts, false)
}

func runFig5(opts Fig5Options, quality bool) []Fig5Point {
	if len(opts.ImageCounts) == 0 || len(opts.Proportions) == 0 {
		panic("harness: bad Fig5 options")
	}
	maxImages := 0
	for _, n := range opts.ImageCounts {
		if n > maxImages {
			maxImages = n
		}
	}
	b := dataset.NewBuilder(opts.Seed, 4000)
	images := make([]*dataset.Image, 0, maxImages)
	for i := 0; i < maxImages; i++ {
		images = append(images, b.Image(b.NewScene(), dataset.KindCanonical))
	}
	var out []Fig5Point
	for _, p := range opts.Proportions {
		// Measure per-image once at the max count, then scale to each
		// requested count from the same per-image measurements.
		bytesPer := make([]int, maxImages)
		ssims := make([]float64, 0, maxImages)
		for i, img := range images {
			m := img.SizeModel()
			if quality {
				size, dec := imagelib.EncodeDecode(img.Render(), p)
				_ = size
				bytesPer[i] = m.Bytes(img.Render(), p)
				ssims = append(ssims, imagelib.SSIM(img.Render(), dec))
			} else {
				small := imagelib.CompressBitmap(img.Render(), p)
				bytesPer[i] = m.Bytes(small, 0)
			}
			img.Free()
		}
		for _, n := range opts.ImageCounts {
			total := 0
			for i := 0; i < n && i < maxImages; i++ {
				total += bytesPer[i]
			}
			pt := Fig5Point{Images: n, Proportion: p, Bytes: total}
			if quality {
				pt.SSIM = metrics.Mean(ssims[:min(n, len(ssims))])
			}
			out = append(out, pt)
		}
	}
	return out
}

// Fig5Table renders one sub-figure.
func Fig5Table(points []Fig5Point, quality bool) *Table {
	title := "Fig. 5(b) — bandwidth overhead vs resolution compression proportion"
	header := []string{"proportion", "images", "upload bytes"}
	if quality {
		title = "Fig. 5(a) — bandwidth overhead and SSIM vs quality compression proportion"
		header = append(header, "SSIM")
	}
	t := &Table{Title: title, Header: header,
		Notes: []string{"paper: substantial byte savings; quality loss grows sharply past 0.85"}}
	for _, p := range points {
		if quality {
			t.Add(p.Proportion, p.Images, mb(p.Bytes), p.SSIM)
		} else {
			t.Add(p.Proportion, p.Images, mb(p.Bytes))
		}
	}
	return t
}
