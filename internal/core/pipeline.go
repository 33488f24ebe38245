package core

import (
	"errors"
	"log"

	"bees/internal/dataset"
	"bees/internal/energy"
	"bees/internal/features"
	"bees/internal/imagelib"
	"bees/internal/outbox"
	"bees/internal/server"
	"bees/internal/submod"
	"bees/internal/telemetry"
)

// Config controls the BEES pipeline.
type Config struct {
	// Adaptive enables the three energy-aware adaptive schemes. With it
	// disabled the pipeline behaves as BEES-EA in the paper: every knob
	// frozen at its Ebat = 100% setting.
	Adaptive bool
	// Extraction parameterizes the ORB extractor.
	Extraction features.Config
	// HammingMax is the descriptor-match radius of Equation 2.
	HammingMax int
	// GraphDescriptors caps the per-image descriptor count used for the
	// in-batch pairwise graph (the strongest keypoints), bounding the
	// O(n²) graph construction cost.
	GraphDescriptors int
	// SSMM configures the in-batch summarizer.
	SSMM submod.Options
	// QualityProportion is AIU's fixed quality-compression setting.
	QualityProportion float64
	// DisableInBatch turns IBRD off (ablation: cross-batch only, like
	// SmartEye/MRC but with the rest of BEES intact).
	DisableInBatch bool
	// QueryResponseBytes models the per-image CBRD answer payload.
	QueryResponseBytes int
	// UploadWindow is AIU's in-flight upload window: images are
	// compressed (host-parallel) and uploaded in chunks of this many, and
	// chunk k+1's compression overlaps chunk k's transmission. Affects
	// wall-clock throughput only — accounting, report contents and upload
	// order are identical for every window size. Default 16.
	UploadWindow int
	// Telemetry, when set, receives per-stage spans, counters and the
	// EAAS knob gauges for every processed batch (see DESIGN.md,
	// "Observability"). Nil disables instrumentation at zero cost.
	Telemetry *telemetry.Registry
	// Outbox, when set, catches upload chunks whose retry budget was
	// exhausted: instead of being dropped, the chunk (items + the nonce
	// the attempt carried) is queued for background replay once the link
	// heals. Chunks are stamped with their summed SSMM marginal gains so
	// overflow evicts the least-valuable imagery first.
	Outbox *outbox.Outbox
}

// DefaultConfig returns the pipeline settings used in the evaluation.
func DefaultConfig() Config {
	return Config{
		Adaptive:           true,
		Extraction:         features.DefaultConfig(),
		HammingMax:         features.DefaultHammingMax,
		GraphDescriptors:   100,
		SSMM:               submod.DefaultOptions(),
		QualityProportion:  QualityProportion,
		QueryResponseBytes: 16,
		UploadWindow:       16,
	}
}

// Pipeline is the BEES scheme.
type Pipeline struct {
	cfg Config
}

var _ Scheme = (*Pipeline)(nil)

// New creates a BEES pipeline.
func New(cfg Config) *Pipeline {
	if cfg.HammingMax <= 0 {
		cfg.HammingMax = features.DefaultHammingMax
	}
	if cfg.QualityProportion <= 0 {
		cfg.QualityProportion = QualityProportion
	}
	if cfg.GraphDescriptors <= 0 {
		cfg.GraphDescriptors = 100
	}
	if cfg.Extraction.MaxFeatures <= 0 {
		cfg.Extraction = features.DefaultConfig()
	}
	if cfg.UploadWindow <= 0 {
		cfg.UploadWindow = 16
	}
	return &Pipeline{cfg: cfg}
}

// Name implements Scheme.
func (p *Pipeline) Name() string {
	if !p.cfg.Adaptive {
		return "BEES-EA"
	}
	return "BEES"
}

// ProcessBatch runs AFE → ARD (CBRD + IBRD) → AIU for one batch.
func (p *Pipeline) ProcessBatch(dev *Device, srv ServerAPI, batch []*dataset.Image) BatchReport {
	tel := p.cfg.Telemetry // nil-safe: every call below no-ops on nil
	acct := BeginBatch(dev)
	report := BatchReport{Scheme: p.Name(), Total: len(batch)}
	if len(batch) == 0 {
		acct.Finish(dev, srv, &report)
		return report
	}

	ebat := 1.0
	if p.cfg.Adaptive {
		ebat = dev.Battery.Ebat()
	}
	tel.Counter("pipeline.batches").Inc()
	tel.Counter("pipeline.images.total").Add(int64(len(batch)))
	tel.Gauge("eaas.ebat").Set(ebat)

	// --- AFE: extract ORB features from EAC-compressed bitmaps. -------
	// Extraction runs on all host cores; the energy/delay accounting
	// below charges the phone's per-image cost model regardless.
	bitmapC := EAC(ebat)
	tel.Gauge("eaas.eac").Set(bitmapC)
	span := tel.StartSpan("afe.extract")
	sets := ExtractAll(batch, bitmapC, p.cfg.Extraction)
	span.End()
	for range batch {
		dev.Compute(dev.Model.ExtractEnergy(features.AlgORB, bitmapC), energy.CatExtract)
	}

	// Upload the features for the index queries (and later insertion).
	descriptors := 0
	for _, set := range sets {
		report.FeatureBytes += set.Bytes()
		descriptors += set.Len()
	}
	dev.Transmit(report.FeatureBytes, energy.CatFeatureTx)
	tel.Counter("pipeline.extract.descriptors").Add(int64(descriptors))
	tel.Counter("pipeline.bytes.features").Add(int64(report.FeatureBytes))

	// --- ARD part 1: CBRD with the EDR threshold. ----------------------
	// One batched query answers every image: a single wire round trip
	// instead of len(batch) on a network transport.
	threshold := EDR(ebat)
	tel.Gauge("eaas.edr").Set(threshold)
	span = tel.StartSpan("ard.cbrd")
	sims := srv.QueryMaxBatch(sets)
	survivors := make([]int, 0, len(batch))
	for i := range batch {
		if sims[i] > threshold {
			report.CrossEliminated++
			continue
		}
		survivors = append(survivors, i)
	}
	span.End()
	respBytes := p.cfg.QueryResponseBytes * len(batch)
	report.FeedbackBytes += respBytes
	dev.Receive(respBytes, energy.CatRx)
	tel.Counter("pipeline.eliminated.cross").Add(int64(report.CrossEliminated))
	tel.Counter("pipeline.bytes.feedback").Add(int64(respBytes))

	// --- ARD part 2: IBRD via SSMM over the survivors. ------------------
	selected := survivors
	// gains maps batch index → the image's SSMM marginal gain, the
	// per-image submodular utility outbox eviction ranks by. Images that
	// bypass SSMM (in-batch disabled, or a trivial survivor set) have no
	// gain and default to 1 below.
	var gains map[int]float64
	if !p.cfg.DisableInBatch && len(survivors) > 1 {
		span = tel.StartSpan("ard.ibrd")
		g := BuildBatchGraph(sets, survivors, p.cfg.GraphDescriptors, p.cfg.HammingMax)
		res := submod.Summarize(g, SSMMThreshold(ebat), p.cfg.SSMM)
		selected = make([]int, 0, len(res.Selected))
		gains = make(map[int]float64, len(res.Selected))
		for i, li := range res.Selected {
			selected = append(selected, survivors[li])
			gains[survivors[li]] = res.Gains[i]
		}
		report.InBatchEliminated = len(survivors) - len(selected)
		span.End()
	}
	tel.Counter("pipeline.eliminated.inbatch").Add(int64(report.InBatchEliminated))

	// --- AIU: quality + EAU resolution compression, then upload. -------
	// The selected images go out through an in-flight window: each chunk
	// is compressed host-parallel, then handed to a background goroutine
	// for the (possibly remote) UploadItems call while the next chunk
	// compresses. Uploads still issue strictly in order — chunk k+1 is
	// not sent until chunk k's round trip finished — and all accounting
	// stays on this goroutine in image order, so reports are
	// byte-identical to a fully serial upload loop.
	resC := EAU(ebat)
	tel.Gauge("eaas.eau").Set(resC)
	span = tel.StartSpan("aiu.upload")
	uploadHist := tel.Histogram("pipeline.upload.bytes", telemetry.SizeBuckets())
	box := p.cfg.Outbox
	var pending chan struct{}
	// Upload goroutines run one at a time (chunk k is joined via pending
	// before chunk k+1 starts), so plain appends to uploadErrs are
	// ordered by the channel close/receive pairs.
	var uploadErrs []error
	for start := 0; start < len(selected); start += p.cfg.UploadWindow {
		end := start + p.cfg.UploadWindow
		if end > len(selected) {
			end = len(selected)
		}
		chunk := selected[start:end]
		items := make([]server.UploadItem, len(chunk))
		sizes := make([]int, len(chunk))
		ForEachIndex(len(chunk), func(k int) {
			img := batch[chunk[k]]
			compressed := imagelib.CompressBitmap(img.Render(), resC)
			sizes[k] = img.SizeModel().Bytes(compressed, p.cfg.QualityProportion)
			// Images that bypassed SSMM carry the same neutral utility
			// (1) the outbox eviction ranking assumes below.
			gain := 1.0
			if g, ok := gains[chunk[k]]; ok {
				gain = g
			}
			items[k] = server.UploadItem{Set: sets[chunk[k]], Meta: server.UploadMeta{
				GroupID: img.GroupID,
				Lat:     img.Lat,
				Lon:     img.Lon,
				Bytes:   sizes[k],
				Gain:    gain,
			}}
		})
		if pending != nil {
			<-pending
		}
		for k := range chunk {
			dev.Compute(dev.Model.CompressEnergy(imagelib.PixelsAt(resC)), energy.CatCompress)
			dev.Transmit(sizes[k], energy.CatImageTx)
			report.ImageBytes += sizes[k]
			report.Uploaded++
			uploadHist.Observe(int64(sizes[k]))
			batch[chunk[k]].Free()
		}
		chunkUtil := 0.0
		for _, bi := range chunk {
			if g, ok := gains[bi]; ok {
				chunkUtil += g
			} else {
				chunkUtil++
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Every upload is nonce-stamped: the nonce makes a client-level
			// retry (or a later outbox replay of this chunk, when an outbox
			// is configured) dedup server-side instead of double-counting.
			// The nonce is drawn here, inside the upload goroutine, because
			// the client serializes nonce draws with in-flight round trips —
			// drawing it on the main goroutine would stall compression of
			// the next chunk behind this chunk's upload.
			nonce := srv.NewUploadNonce()
			_, err := srv.UploadItems(nonce, items)
			if err == nil {
				return
			}
			// Each failed chunk counts once; RemoteServer additionally
			// self-accounts per-item degradation via DegradationCounter.
			tel.Counter("pipeline.upload.errors").Inc()
			uploadErrs = append(uploadErrs, err)
			if box == nil {
				return
			}
			if perr := box.Push(nonce, chunkUtil, items); perr != nil {
				uploadErrs = append(uploadErrs, perr)
			} else {
				tel.Counter("pipeline.outbox.enqueued").Inc()
			}
		}()
		pending = done
	}
	if pending != nil {
		<-pending
	}
	if len(uploadErrs) > 0 {
		// RemoteServer logs individual failures itself; this joins every
		// chunk's error (and any outbox spill failure) so ServerAPI
		// implementations whose only failure signal is the returned error
		// still surface all of them, not just the last.
		log.Printf("bees: batch upload failed: %v", errors.Join(uploadErrs...))
	}
	span.End()
	for _, img := range batch {
		img.Free()
	}
	acct.Finish(dev, srv, &report)

	tel.Counter("pipeline.images.uploaded").Add(int64(report.Uploaded))
	tel.Counter("pipeline.bytes.images").Add(int64(report.ImageBytes))
	// Bytes saved versus the Direct Upload baseline, which would have sent
	// every batch image at the nominal full size with no feature overhead.
	if saved := int64(len(batch))*imagelib.NominalBytes - int64(report.TotalBytes()); saved > 0 {
		tel.Counter("pipeline.bytes.saved").Add(saved)
	}
	tel.Counter("pipeline.degraded").Add(int64(report.Degraded))
	return report
}

// capSet returns a view of the strongest n descriptors (extraction sorts
// keypoints by corner score, so a prefix is the strongest subset).
func capSet(s *features.BinarySet, n int) *features.BinarySet {
	if s.Len() <= n {
		return s
	}
	return &features.BinarySet{Descriptors: s.Descriptors[:n], Keypoints: s.Keypoints[:n]}
}
