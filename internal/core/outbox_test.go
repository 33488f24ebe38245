package core

import (
	"errors"
	"sync"
	"testing"

	"bees/internal/dataset"
	"bees/internal/features"
	"bees/internal/outbox"
	"bees/internal/server"
	"bees/internal/telemetry"
)

// flakyAPI is a ServerAPI whose uploads fail while `down` is
// set. Queries always answer 0 (all unique) so every image reaches the
// upload stage.
type flakyAPI struct {
	mu     sync.Mutex
	down   bool
	nonce  uint64
	upcall []struct {
		nonce uint64
		n     int
	}
	applied int
}

func (f *flakyAPI) QueryMaxBatch(sets []*features.BinarySet) []float64 {
	return make([]float64, len(sets))
}

func (f *flakyAPI) NewUploadNonce() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nonce++
	return f.nonce
}

func (f *flakyAPI) UploadItems(nonce uint64, items []server.UploadItem) ([]int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.upcall = append(f.upcall, struct {
		nonce uint64
		n     int
	}{nonce, len(items)})
	if f.down {
		return nil, errors.New("flaky: link down")
	}
	f.applied += len(items)
	return make([]int64, len(items)), nil
}

// TestPipelineOutboxCapturesFailedChunks runs a batch through a dead
// uplink: every upload chunk must land in the outbox with the nonce its
// wire attempt carried, each failed chunk must count in
// pipeline.upload.errors, and a drain through the healed link must
// deliver every queued image.
func TestPipelineOutboxCapturesFailedChunks(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a 24-image batch")
	}
	tel := telemetry.NewRegistry()
	box, err := outbox.Open(outbox.Config{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Adaptive = false
	cfg.UploadWindow = 4 // several chunks per batch
	cfg.Telemetry = tel
	cfg.Outbox = box
	p := New(cfg)

	api := &flakyAPI{down: true}
	d := dataset.NewDisasterBatch(500, 24, 0, 0)
	report := p.ProcessBatch(newTestDevice(), api, d.Batch)
	if report.Uploaded == 0 {
		t.Fatal("no images reached the upload stage")
	}

	wantChunks := (report.Uploaded + cfg.UploadWindow - 1) / cfg.UploadWindow
	if got := box.Len(); got != wantChunks {
		t.Fatalf("outbox holds %d chunks, want %d", got, wantChunks)
	}
	snap := tel.Snapshot()
	if got := snap.Counters["pipeline.upload.errors"]; got != int64(wantChunks) {
		t.Fatalf("pipeline.upload.errors = %d, want one per failed chunk (%d)", got, wantChunks)
	}
	if got := snap.Counters["pipeline.outbox.enqueued"]; got != int64(wantChunks) {
		t.Fatalf("pipeline.outbox.enqueued = %d, want %d", got, wantChunks)
	}
	// Every queued chunk carries the nonce of its failed wire attempt and
	// a positive utility (summed SSMM gains).
	queuedImages := 0
	st := box.Stats()
	queuedImages = st.Items
	if queuedImages != report.Uploaded {
		t.Fatalf("outbox holds %d images, report uploaded %d", queuedImages, report.Uploaded)
	}

	// Heal the link and drain: replays reuse the recorded nonces.
	api.mu.Lock()
	api.down = false
	firstAttempts := len(api.upcall)
	api.mu.Unlock()
	drainer := outbox.NewDrainer(box, func(c *outbox.Chunk) error {
		if c.Nonce == 0 {
			t.Errorf("queued chunk lost its nonce")
		}
		if c.Utility <= 0 {
			t.Errorf("queued chunk has utility %v", c.Utility)
		}
		_, err := api.UploadItems(c.Nonce, c.Items)
		return err
	})
	n, err := drainer.DrainOnce()
	if err != nil || n != wantChunks {
		t.Fatalf("DrainOnce = (%d, %v), want %d chunks", n, err, wantChunks)
	}
	if box.Len() != 0 {
		t.Fatalf("outbox still holds %d chunks after drain", box.Len())
	}
	api.mu.Lock()
	defer api.mu.Unlock()
	if api.applied != report.Uploaded {
		t.Fatalf("server applied %d images, want %d", api.applied, report.Uploaded)
	}
	// The replays reused the nonces of the original attempts, in order.
	for i, call := range api.upcall[firstAttempts:] {
		if call.nonce != api.upcall[i].nonce {
			t.Fatalf("replay %d used nonce %d, original attempt used %d",
				i, call.nonce, api.upcall[i].nonce)
		}
	}
}

// TestPipelineWithoutOutboxStillStampsNonces: an outbox is not what
// makes uploads nonce-carrying — every transport gets a nonce per chunk
// (so client-level retries dedup server-side and the remote path can
// delta-upload), and failed chunks are counted even though there is
// nowhere to spool them.
func TestPipelineWithoutOutboxStillStampsNonces(t *testing.T) {
	if testing.Short() {
		t.Skip("renders an 8-image batch")
	}
	tel := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.Adaptive = false
	cfg.UploadWindow = 4
	cfg.Telemetry = tel
	p := New(cfg)
	api := &flakyAPI{down: true}
	d := dataset.NewDisasterBatch(501, 8, 0, 0)
	report := p.ProcessBatch(newTestDevice(), api, d.Batch)
	if report.Uploaded == 0 {
		t.Fatal("no images reached the upload stage")
	}
	api.mu.Lock()
	for _, call := range api.upcall {
		if call.nonce == 0 {
			t.Fatal("outbox-less pipeline sent an upload without a nonce")
		}
	}
	api.mu.Unlock()
	snap := tel.Snapshot()
	if got := snap.Counters["pipeline.upload.errors"]; got == 0 {
		t.Fatal("upload errors not counted without an outbox")
	}
	if got := snap.Counters["pipeline.outbox.enqueued"]; got != 0 {
		t.Fatalf("outbox-less pipeline enqueued %d chunks", got)
	}
}
