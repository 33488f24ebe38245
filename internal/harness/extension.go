package harness

import (
	"bees/internal/baseline"
	"bees/internal/core"
	"bees/internal/dataset"
	"bees/internal/energy"
	"bees/internal/features"
	"bees/internal/netsim"
	"bees/internal/server"
)

// Extension study (beyond the paper's evaluation): detection quality of
// redundancy elimination. The paper's related work eliminates redundancy
// from metadata (PhotoNet: geotags + color histograms); BEES argues local
// features are more robust. This experiment quantifies that claim on
// ground-truth workloads: how much of the true redundancy each scheme
// eliminates (recall) and how much unique content it wrongly drops
// (precision of the elimination decisions).

// DetectionRow is one scheme's elimination quality.
type DetectionRow struct {
	Scheme string
	// TrueRedundant is the ground-truth redundant image count;
	// Eliminated is how many images the scheme dropped.
	TrueRedundant int
	Eliminated    int
	// Recall = correctly eliminated / TrueRedundant.
	Recall float64
	// Precision = correctly eliminated / Eliminated.
	Precision float64
	// EnergyJ is the batch energy, giving the cost side of the tradeoff.
	EnergyJ float64
}

// DetectionOptions parameterizes the study.
type DetectionOptions struct {
	BatchSize  int
	InBatchDup int
	BitrateBps float64
}

// The study's workload: one seed, with 40% of the batch's scenes
// already on the server.
const (
	detectionSeed       = 131
	detectionCrossRatio = 0.4
)

// DefaultDetectionOptions returns a laptop-scale configuration.
func DefaultDetectionOptions() DetectionOptions {
	return DetectionOptions{
		BatchSize:  40,
		InBatchDup: 6,
		BitrateBps: 256000,
	}
}

// RunExtensionDetection measures elimination recall/precision per scheme.
func RunExtensionDetection(opts DetectionOptions) []DetectionRow {
	if opts.BatchSize <= 0 {
		panic("harness: bad detection options")
	}
	if opts.BitrateBps <= 0 {
		opts.BitrateBps = 256000
	}
	schemes := []core.Scheme{
		baseline.NewPhotoNet(),
		baseline.NewMRC(),
		baseline.NewBEES(),
	}
	extractCfg := features.DefaultConfig()
	rows := make([]DetectionRow, 0, len(schemes))
	for _, scheme := range schemes {
		d := dataset.NewDisasterBatch(detectionSeed, opts.BatchSize, opts.InBatchDup, detectionCrossRatio)
		srv := server.NewDefault()
		for _, tw := range d.ServerTwins {
			g := features.ExtractGlobal(tw.Render())
			srv.SeedIndex(features.ExtractORB(tw.Render(), extractCfg), server.UploadMeta{
				GroupID: tw.GroupID, Lat: tw.Lat, Lon: tw.Lon, Global: &g,
			})
			tw.Free()
		}
		// Ground truth per group: a group's redundant count is its batch
		// multiplicity minus one (burst duplicates), plus one if the
		// scene has a server twin (then even its first shot is
		// redundant).
		truthByGroup := map[int64]int{}
		countByGroup := map[int64]int{}
		for _, img := range d.Batch {
			countByGroup[img.GroupID]++
		}
		twinGroups := map[int64]bool{}
		for _, tw := range d.ServerTwins {
			twinGroups[tw.GroupID] = true
		}
		trueRedundant := 0
		for g, n := range countByGroup {
			t := n - 1
			if twinGroups[g] {
				t = n
			}
			truthByGroup[g] = t
			trueRedundant += t
		}

		dev := core.NewDevice(nil, netsim.NewLink(opts.BitrateBps), energy.DefaultModel())
		r := scheme.ProcessBatch(dev, srv, d.Batch)

		uploadsByGroup := map[int64]int{}
		for _, m := range srv.UploadedMetas() {
			uploadsByGroup[m.GroupID]++
		}
		correct, wrong := 0, 0
		for g, n := range countByGroup {
			eliminated := n - uploadsByGroup[g]
			truth := truthByGroup[g]
			if eliminated <= truth {
				correct += eliminated
			} else {
				correct += truth
				wrong += eliminated - truth
			}
		}
		row := DetectionRow{
			Scheme:        scheme.Name(),
			TrueRedundant: trueRedundant,
			Eliminated:    correct + wrong,
			EnergyJ:       r.Energy.Total(),
		}
		if trueRedundant > 0 {
			row.Recall = float64(correct) / float64(trueRedundant)
		}
		if row.Eliminated > 0 {
			row.Precision = float64(correct) / float64(row.Eliminated)
		}
		rows = append(rows, row)
	}
	return rows
}

// DetectionTable renders the extension study.
func DetectionTable(rows []DetectionRow) *Table {
	t := &Table{
		Title:  "Extension — redundancy-elimination quality: metadata (PhotoNet) vs local features",
		Header: []string{"scheme", "true redundant", "eliminated", "recall", "precision", "energy (J)"},
		Notes: []string{
			"local-feature schemes should dominate metadata-based elimination on recall at high precision",
		},
	}
	for _, r := range rows {
		t.Add(r.Scheme, r.TrueRedundant, r.Eliminated, pct(r.Recall), pct(r.Precision), r.EnergyJ)
	}
	return t
}
