package core

import (
	"time"

	"bees/internal/dataset"
	"bees/internal/energy"
	"bees/internal/features"
	"bees/internal/server"
)

// ServerAPI is the cloud-server surface a scheme needs, batch-first: one
// call answers the CBRD similarity query for a whole batch and one call
// uploads a whole chunk of images, so over a network transport a batch
// costs O(1) round trips instead of O(N). *server.Server implements it
// in-process; client.RemoteServer implements it over TCP, so the same
// pipeline and baselines drive both the simulations and the network
// prototype.
//
// Uploads are exactly-once: the caller draws a nonce, stamps its outbox
// chunk with it, and every (re)send of that chunk deduplicates
// server-side against the first delivery.
type ServerAPI interface {
	// QueryMaxBatch returns the maximum stored similarity for each set,
	// in order. Implementations that can degrade instead of failing
	// report 0 (image treated as unique) for sets they could not answer.
	QueryMaxBatch(sets []*features.BinarySet) []float64
	// NewUploadNonce draws a fresh nonzero nonce.
	NewUploadNonce() uint64
	// UploadItems stores the items under the caller's nonce and returns
	// the server-assigned IDs in item order. The error reports transport
	// failure, and the whole chunk may be replayed under the same nonce;
	// schemes account bytes/energy for the attempt either way (the phone
	// spent them), and degradation is surfaced through
	// DegradationCounter.
	UploadItems(nonce uint64, items []server.UploadItem) ([]int64, error)
}

var _ ServerAPI = (*server.Server)(nil)

// BatchReport is what every scheme returns for one processed batch: the
// elimination counts, the bytes that crossed the network, the energy
// spent by category, and the accumulated delay.
type BatchReport struct {
	Scheme string
	// Total is the batch size; Uploaded is how many images were sent.
	Total    int
	Uploaded int
	// CrossEliminated images matched the server index (CBRD);
	// InBatchEliminated images were dropped by SSMM (IBRD).
	CrossEliminated   int
	InBatchEliminated int
	// FeatureBytes, ImageBytes and FeedbackBytes split the network cost;
	// FeedbackBytes covers auxiliary exchanges (MRC's thumbnails, query
	// responses).
	FeatureBytes  int
	ImageBytes    int
	FeedbackBytes int
	// Degraded counts the query sets and upload items whose request
	// exhausted the transport's retry budget during this batch and fell
	// back to the disaster-mode degradation (image treated as unique /
	// upload skipped). Always 0 for in-process servers.
	Degraded int
	// Energy is the per-category energy of this batch only.
	Energy energy.Meter
	// Delay is the wall time the batch occupied the phone (extraction +
	// feature upload + image upload), on the virtual clock.
	Delay time.Duration
	// EbatAfter is the battery fraction when the batch finished.
	EbatAfter float64
}

// TotalBytes returns all bytes the batch pushed through the uplink.
func (r BatchReport) TotalBytes() int {
	return r.FeatureBytes + r.ImageBytes + r.FeedbackBytes
}

// AvgDelayPerImage returns Delay divided by the batch size, the metric
// of Fig. 11.
func (r BatchReport) AvgDelayPerImage() time.Duration {
	if r.Total == 0 {
		return 0
	}
	return r.Delay / time.Duration(r.Total)
}

// Scheme is the interface every image-sharing scheme implements; the
// harness drives BEES and all baselines through it.
type Scheme interface {
	// Name identifies the scheme in reports ("BEES", "Direct Upload", …).
	Name() string
	// ProcessBatch pushes one image batch from the device to the server
	// and reports what happened.
	ProcessBatch(dev *Device, srv ServerAPI, batch []*dataset.Image) BatchReport
}

// DegradationCounter is implemented by server adapters that can degrade
// instead of failing (client.RemoteServer): TakeDegraded returns how many
// query sets and upload items degraded since the last call and resets
// the counter.
type DegradationCounter interface {
	TakeDegraded() int
}

// BatchAccounting captures the meter and clock at batch start so the
// report contains only this batch's deltas. Scheme implementations call
// BeginBatch first and Finish last.
type BatchAccounting struct {
	meterBefore energy.Meter
	clockBefore time.Duration
}

// BeginBatch snapshots the device counters.
func BeginBatch(dev *Device) BatchAccounting {
	return BatchAccounting{meterBefore: *dev.Meter, clockBefore: dev.Clock.Now()}
}

// Finish fills the report's energy, delay and battery fields from the
// device counters accumulated since BeginBatch, and folds in the server
// adapter's degradation count when it keeps one (srv may be nil).
func (a BatchAccounting) Finish(dev *Device, srv ServerAPI, r *BatchReport) {
	r.Energy = diffMeter(*dev.Meter, a.meterBefore)
	r.Delay = dev.Clock.Now() - a.clockBefore
	r.EbatAfter = dev.Battery.Ebat()
	if dc, ok := srv.(DegradationCounter); ok {
		r.Degraded = dc.TakeDegraded()
	}
}

// diffMeter returns after − before per category.
func diffMeter(after, before energy.Meter) energy.Meter {
	var out energy.Meter
	for c := energy.CatExtract; c <= energy.CatScreen; c++ {
		out.Add(c, after.Get(c)-before.Get(c))
	}
	return out
}
