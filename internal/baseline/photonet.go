package baseline

import (
	"bees/internal/core"
	"bees/internal/dataset"
	"bees/internal/energy"
	"bees/internal/features"
)

// PhotoNet is an extension baseline from the paper's related work
// (Uddin et al., RTSS 2011): content-based redundancy elimination using
// image *metadata* only — geotags plus color histograms — instead of
// local features. It is far cheaper to compute than any descriptor
// pipeline but much less precise: two different scenes at the same place
// with similar exposure look redundant, and two shots of one scene under
// different exposure look unique. The extension study quantifies exactly
// that trade-off against BEES.
type PhotoNet struct {
	// RadiusDeg is the geographic gate (Chebyshev distance in degrees)
	// within which candidates are compared.
	RadiusDeg float64
	// HistThreshold is the histogram-intersection similarity above which
	// a nearby image counts as redundant.
	HistThreshold float64
	// GlobalExtractJ is the energy to compute one global histogram
	// (a single pass over the bitmap; orders below ORB).
	GlobalExtractJ float64
}

var _ core.Scheme = PhotoNet{}

// NewPhotoNet returns the baseline with calibrated defaults.
func NewPhotoNet() PhotoNet {
	return PhotoNet{
		RadiusDeg:      0.0005, // ~50 m
		HistThreshold:  0.62,
		GlobalExtractJ: 0.004,
	}
}

// Name implements core.Scheme.
func (PhotoNet) Name() string { return "PhotoNet" }

// MetadataServer is the server surface PhotoNet needs on top of
// core.ServerAPI. *server.Server implements it.
type MetadataServer interface {
	core.ServerAPI
	QueryNearby(lat, lon, radiusDeg float64, g features.GlobalDescriptor) float64
}

// ProcessBatch eliminates images whose geotag neighborhood already holds
// a histogram-similar image, then uploads the survivors at full size.
// The server must implement MetadataServer (the in-process server does);
// otherwise every image is treated as unique.
func (p PhotoNet) ProcessBatch(dev *core.Device, srv core.ServerAPI, batch []*dataset.Image) core.BatchReport {
	if p.RadiusDeg <= 0 {
		p.RadiusDeg = 0.0005
	}
	if p.HistThreshold <= 0 {
		p.HistThreshold = 0.62
	}
	if p.GlobalExtractJ <= 0 {
		p.GlobalExtractJ = 0.004
	}
	meta, _ := srv.(MetadataServer)
	acct := core.BeginBatch(dev)
	report := core.BatchReport{Scheme: p.Name(), Total: len(batch)}
	globals := make([]features.GlobalDescriptor, len(batch))
	for i, img := range batch {
		globals[i] = features.ExtractGlobal(img.Render())
		dev.Compute(p.GlobalExtractJ, energy.CatExtract)
		// Metadata upload: histogram + geotag.
		report.FeatureBytes += features.GlobalBytes + 16
	}
	dev.Transmit(report.FeatureBytes, energy.CatFeatureTx)
	redundant := make([]bool, len(batch))
	if meta != nil {
		for i, img := range batch {
			if meta.QueryNearby(img.Lat, img.Lon, p.RadiusDeg, globals[i]) > p.HistThreshold {
				redundant[i] = true
				report.CrossEliminated++
			}
		}
	}
	uploadFullSize(dev, srv, batch, redundant, nil, globals, &report)
	acct.Finish(dev, srv, &report)
	return report
}
