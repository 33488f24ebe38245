package client

import (
	"testing"
	"time"

	"bees/internal/baseline"
	"bees/internal/core"
	"bees/internal/dataset"
	"bees/internal/energy"
	"bees/internal/netsim"
	"bees/internal/telemetry"
)

// latencyClient dials srv through a link that injects latency on every
// I/O but never faults, and exposes the registry whose "client.requests"
// counter is the logical round-trip count (it increments once per
// request, before any retries).
func latencyClient(t *testing.T, addr string) (*Client, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	c, err := DialOptions(addr, Options{
		RequestTimeout: 10 * time.Second,
		MaxRetries:     2,
		Seed:           1,
		Telemetry:      reg,
		Dial: netsim.FaultyDialer(netsim.FaultConfig{
			Seed:    1,
			Latency: 2 * time.Millisecond,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, reg
}

// TestBatchRoundTripsBounded pins the batch-first wire economics: a
// 64-image batch must complete CBRD + AIU in O(1) round trips — one
// batched query plus one delta upload per AIU window — instead of one
// round trip per image. Under the injected per-I/O latency that
// difference is exactly where the paper's upload chatter goes.
func TestBatchRoundTripsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("64-image pipeline run takes a few seconds")
	}
	const total = 64
	_, addr := startServer(t)
	c, reg := latencyClient(t, addr)
	dev := core.NewDevice(nil, netsim.NewLink(256000), energy.DefaultModel())
	d := dataset.NewDisasterBatch(77, total, 8, 0)
	batched := baseline.NewBEES().ProcessBatch(dev, NewRemoteServer(c), d.Batch)
	batchedTrips := reg.Counter("client.requests").Value()
	if batched.Degraded != 0 {
		t.Fatalf("latency-only link degraded %d requests", batched.Degraded)
	}
	// One CBRD query frame, one Hello (feature negotiation, cached for
	// the client's lifetime), then per AIU window the delta upload costs
	// a block query, at most one put frame (a window's payload fits well
	// under the default BlockPutBytes), and a manifest commit. Still
	// O(1) per window — the delta path spends its savings in bytes, not
	// round trips.
	window := core.DefaultConfig().UploadWindow
	windows := (batched.Uploaded + window - 1) / window
	maxTrips := int64(2 + 3*windows)
	if batchedTrips > maxTrips {
		t.Fatalf("batched pipeline used %d round trips for %d images (%d uploads), want <= %d",
			batchedTrips, total, batched.Uploaded, maxTrips)
	}
	if batched.Uploaded == 0 {
		t.Fatal("degenerate run uploaded nothing")
	}
	t.Logf("round trips: %d (%d images, %d uploaded)", batchedTrips, total, batched.Uploaded)
}
