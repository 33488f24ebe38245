// Package baseline implements the comparison schemes of the evaluation:
//
//   - Direct Upload: every image is uploaded at full size and quality,
//     with no feature extraction.
//   - SmartEye (Hua et al., INFOCOM 2015): PCA-SIFT feature extraction,
//     cross-batch redundancy elimination by index query, full-size upload
//     of unique images. No in-batch elimination, no approximation.
//   - MRC (Dao et al., CoNEXT 2014): ORB feature extraction plus a
//     thumbnail exchange for server-side verification, cross-batch
//     elimination, full-size upload of unique images.
//
// BEES-EA (BEES without energy-aware adaptation) is core.New with
// Adaptive disabled.
//
// Detection parity: the paper seeds server twins with similarity high
// enough that "all redundant images can be detected by the three
// different schemes for fair comparisons". This package therefore drives
// every scheme's redundancy *decision* through the same ORB index query
// while charging each scheme its own feature-extraction energy and
// feature/thumbnail bytes — the quantities the evaluation actually
// compares.
package baseline

import (
	"bees/internal/core"
	"bees/internal/dataset"
	"bees/internal/energy"
	"bees/internal/features"
	"bees/internal/imagelib"
	"bees/internal/server"
)

// FixedThreshold is the similarity threshold the non-adaptive schemes
// use for cross-batch detection: EDR at full battery.
const FixedThreshold = 0.019

// Direct is the Direct Upload baseline.
type Direct struct{}

var _ core.Scheme = Direct{}

// Name implements core.Scheme.
func (Direct) Name() string { return "Direct Upload" }

// ProcessBatch uploads every image at full size and quality — as one
// batched upload, so even the naive baseline pays O(1) round trips over
// a network transport.
func (Direct) ProcessBatch(dev *core.Device, srv core.ServerAPI, batch []*dataset.Image) core.BatchReport {
	acct := core.BeginBatch(dev)
	report := core.BatchReport{Scheme: Direct{}.Name(), Total: len(batch)}
	items := make([]server.UploadItem, 0, len(batch))
	for _, img := range batch {
		bytes := img.SizeModel().Bytes(img.Render(), 0)
		dev.Transmit(bytes, energy.CatImageTx)
		items = append(items, server.UploadItem{Meta: server.UploadMeta{
			GroupID: img.GroupID, Lat: img.Lat, Lon: img.Lon, Bytes: bytes,
		}})
		report.ImageBytes += bytes
		report.Uploaded++
		img.Free()
	}
	if len(items) > 0 {
		srv.UploadItems(srv.NewUploadNonce(), items)
	}
	acct.Finish(dev, srv, &report)
	return report
}

// SmartEye is the PCA-SIFT cross-batch elimination baseline.
type SmartEye struct {
	// Extraction parameterizes the feature extractors.
	Extraction features.Config
}

var _ core.Scheme = SmartEye{}

// NewSmartEye creates the baseline with default extraction parameters.
func NewSmartEye() SmartEye { return SmartEye{Extraction: features.DefaultConfig()} }

// Name implements core.Scheme.
func (SmartEye) Name() string { return "SmartEye" }

// ProcessBatch extracts PCA-SIFT features, eliminates cross-batch
// redundancy, and uploads unique images uncompressed.
func (s SmartEye) ProcessBatch(dev *core.Device, srv core.ServerAPI, batch []*dataset.Image) core.BatchReport {
	cfg := s.Extraction
	if cfg.MaxFeatures <= 0 {
		cfg = features.DefaultConfig()
	}
	acct := core.BeginBatch(dev)
	report := core.BatchReport{Scheme: s.Name(), Total: len(batch)}
	orbSets := make([]*features.BinarySet, len(batch))
	featBytes := make([]int, len(batch))
	core.ForEachIndex(len(batch), func(i int) {
		raster := batch[i].Render()
		featBytes[i] = features.ExtractPCASIFT(raster, cfg).Bytes()
		orbSets[i] = features.ExtractORB(raster, cfg) // decision parity (see package doc)
	})
	for i := range batch {
		dev.Compute(dev.Model.ExtractEnergy(features.AlgPCASIFT, 0), energy.CatExtract)
		report.FeatureBytes += featBytes[i]
	}
	dev.Transmit(report.FeatureBytes, energy.CatFeatureTx)
	uploadSurvivors(dev, srv, batch, orbSets, &report)
	acct.Finish(dev, srv, &report)
	return report
}

// MRC is the ORB + thumbnail-feedback baseline.
type MRC struct {
	Extraction features.Config
	// ThumbResProportion and ThumbQuality parameterize the thumbnail the
	// scheme exchanges per image for server-side verification.
	ThumbResProportion float64
	ThumbQuality       float64
}

var _ core.Scheme = MRC{}

// NewMRC creates the baseline with the calibrated thumbnail parameters
// (thumbnails cost slightly more than SmartEye's feature upload, per the
// paper's Fig. 10 observation).
func NewMRC() MRC {
	return MRC{
		Extraction:         features.DefaultConfig(),
		ThumbResProportion: 0.7,
		ThumbQuality:       0.3,
	}
}

// Name implements core.Scheme.
func (MRC) Name() string { return "MRC" }

// ProcessBatch extracts ORB features, exchanges a thumbnail per image,
// eliminates cross-batch redundancy, and uploads unique images
// uncompressed.
func (m MRC) ProcessBatch(dev *core.Device, srv core.ServerAPI, batch []*dataset.Image) core.BatchReport {
	cfg := m.Extraction
	if cfg.MaxFeatures <= 0 {
		cfg = features.DefaultConfig()
	}
	if m.ThumbResProportion <= 0 {
		m.ThumbResProportion = 0.7
	}
	if m.ThumbQuality <= 0 {
		m.ThumbQuality = 0.3
	}
	acct := core.BeginBatch(dev)
	report := core.BatchReport{Scheme: m.Name(), Total: len(batch)}
	orbSets := make([]*features.BinarySet, len(batch))
	thumbBytes := make([]int, len(batch))
	core.ForEachIndex(len(batch), func(i int) {
		raster := batch[i].Render()
		orbSets[i] = features.ExtractORB(raster, cfg)
		// Thumbnail: a strongly downscaled, quality-compressed copy.
		thumb := imagelib.CompressBitmap(raster, m.ThumbResProportion)
		thumbBytes[i] = batch[i].SizeModel().Bytes(thumb, m.ThumbQuality)
	})
	for i := range batch {
		dev.Compute(dev.Model.ExtractEnergy(features.AlgORB, 0), energy.CatExtract)
		report.FeatureBytes += orbSets[i].Bytes()
		report.FeedbackBytes += thumbBytes[i]
	}
	dev.Transmit(report.FeatureBytes, energy.CatFeatureTx)
	dev.Transmit(report.FeedbackBytes, energy.CatFeatureTx)
	uploadSurvivors(dev, srv, batch, orbSets, &report)
	acct.Finish(dev, srv, &report)
	return report
}

// uploadSurvivors runs the two-phase cross-batch elimination shared by
// SmartEye and MRC: every image is first checked against the pre-batch
// server index (so in-batch duplicates are NOT caught — the limitation
// BEES's IBRD addresses), then the survivors upload at full size.
func uploadSurvivors(dev *core.Device, srv core.ServerAPI, batch []*dataset.Image,
	orbSets []*features.BinarySet, report *core.BatchReport) {
	sims := srv.QueryMaxBatch(orbSets)
	redundant := make([]bool, len(batch))
	for i := range batch {
		if sims[i] > FixedThreshold {
			redundant[i] = true
			report.CrossEliminated++
		}
	}
	items := make([]server.UploadItem, 0, len(batch))
	for i, img := range batch {
		if redundant[i] {
			img.Free()
			continue
		}
		bytes := img.SizeModel().Bytes(img.Render(), 0)
		dev.Transmit(bytes, energy.CatImageTx)
		items = append(items, server.UploadItem{Set: orbSets[i], Meta: server.UploadMeta{
			GroupID: img.GroupID, Lat: img.Lat, Lon: img.Lon, Bytes: bytes,
		}})
		report.ImageBytes += bytes
		report.Uploaded++
		img.Free()
	}
	if len(items) > 0 {
		srv.UploadItems(srv.NewUploadNonce(), items)
	}
}

// NewBEES returns the full BEES pipeline as a Scheme.
func NewBEES() core.Scheme { return core.New(core.DefaultConfig()) }

// NewBEESEA returns BEES with the energy-aware adaptive schemes disabled
// (the paper's BEES-EA).
func NewBEESEA() core.Scheme {
	cfg := core.DefaultConfig()
	cfg.Adaptive = false
	return core.New(cfg)
}
