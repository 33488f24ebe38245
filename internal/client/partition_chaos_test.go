package client

import (
	"path/filepath"
	"testing"
	"time"

	"bees/internal/core"
	"bees/internal/dataset"
	"bees/internal/energy"
	"bees/internal/netsim"
	"bees/internal/outbox"
	"bees/internal/server"
	"bees/internal/telemetry"
	"bees/internal/wal"
)

// partitionPipelineConfig freezes the adaptive knobs so compressed sizes
// do not depend on battery state: the clean-run and partition-run byte
// counts must match to the byte.
func partitionPipelineConfig(box *outbox.Outbox, tel *telemetry.Registry) core.Config {
	cfg := core.DefaultConfig()
	cfg.Adaptive = false
	cfg.UploadWindow = 4
	cfg.Outbox = box
	cfg.Telemetry = tel
	return cfg
}

func runPartitionBatch(t *testing.T, cfg core.Config, api core.ServerAPI, seed int64, n int) core.BatchReport {
	t.Helper()
	d := dataset.NewDisasterBatch(seed, n, 0, 0)
	dev := core.NewDevice(nil, netsim.NewLink(256000), energy.DefaultModel())
	return core.New(cfg).ProcessBatch(dev, api, d.Batch)
}

// TestChaosPartitionZeroImageLoss is the PR's end-to-end proof: the full
// BEES pipeline runs through a long network partition, the device
// outbox catches every upload chunk the dead link rejected, the beesd
// process is killed and restarted from its WAL directory (checkpoint
// plus log), and a background
// drainer replays the backlog through the healed link. At the end the
// server must hold exactly the images a never-partitioned run would
// have delivered — zero loss, zero double counting — including a chunk
// that is deliberately replayed twice (dedup by original nonce).
func TestChaosPartitionZeroImageLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline + partition + server restart takes a while")
	}
	const batchSeed, batchSize = 900, 16

	// --- Baseline: the same batch over a healthy link. ------------------
	_, cleanAddr := startServer(t)
	cleanClient := dial(t, cleanAddr)
	cleanReport := runPartitionBatch(t, partitionPipelineConfig(nil, nil),
		NewRemoteServer(cleanClient), batchSeed, batchSize)
	if cleanReport.Degraded != 0 || cleanReport.Uploaded == 0 {
		t.Fatalf("clean run unhealthy: %+v", cleanReport)
	}
	wantImages, wantBytes, err := cleanClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	cleanClient.Close()

	// --- The system under test: a server that persists. -----------------
	stateDir := t.TempDir()
	walCfg := wal.Config{Dir: filepath.Join(stateDir, "wal")}
	srv, _, err := server.Recover(server.RecoverConfig{WAL: walCfg})
	if err != nil {
		t.Fatal(err)
	}
	tcp := server.NewTCP(srv)
	addr, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrStr := addr.String()

	tel := telemetry.NewRegistry()
	box, err := outbox.Open(outbox.Config{Dir: filepath.Join(stateDir, "outbox"), Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	part := netsim.NewPartition()
	c, err := DialOptions(addrStr, Options{
		DialTimeout:        time.Second,
		RequestTimeout:     time.Second,
		MaxRetries:         2,
		BackoffBase:        time.Millisecond,
		BackoffMax:         5 * time.Millisecond,
		BreakerCooldown:    2 * time.Millisecond,
		BreakerCooldownMax: 10 * time.Millisecond,
		Seed:               42,
		Telemetry:          tel,
		Dial:               part.Dialer(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	remote := NewRemoteServer(c)

	// --- Partition, then push the whole batch through it. ---------------
	part.Sever()
	report := runPartitionBatch(t, partitionPipelineConfig(box, tel), remote, batchSeed, batchSize)
	if report.Uploaded != cleanReport.Uploaded {
		t.Fatalf("partitioned run selected %d uploads, clean run %d — selection must not depend on the link",
			report.Uploaded, cleanReport.Uploaded)
	}
	wantChunks := (report.Uploaded + 3) / 4 // UploadWindow 4
	if got := box.Len(); got != wantChunks {
		t.Fatalf("outbox caught %d chunks, want %d", got, wantChunks)
	}
	if images := srv.Stats().Images; images != 0 {
		t.Fatalf("server received %d images through a severed link", images)
	}
	if m := c.Metrics(); m.BreakerTrips == 0 {
		t.Error("a full batch of failures never tripped the breaker")
	}

	// --- Heal; replay the first chunk twice (lost-response model). ------
	part.Heal()
	first, ok := box.Peek()
	if !ok {
		t.Fatal("outbox empty after partitioned run")
	}
	for i := 0; i < 2; i++ { // second replay = retry of a lost ack
		if _, err := remote.UploadItems(first.Nonce, first.Items); err != nil {
			t.Fatalf("healed replay %d failed: %v", i, err)
		}
	}
	if images := srv.Stats().Images; images != len(first.Items) {
		t.Fatalf("double replay stored %d images, want %d (nonce dedup)", images, len(first.Items))
	}
	box.Ack(first)

	// --- Kill beesd (checkpoint + restart on the same address). ---------
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tcp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	srv2, st, err := server.Recover(server.RecoverConfig{WAL: walCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.WAL().Close()
	if st.SnapshotGeneration != 1 {
		t.Fatalf("restart loaded checkpoint generation %d, want the primary", st.SnapshotGeneration)
	}
	tcp2 := server.NewTCP(srv2)
	if _, err := tcp2.Listen(addrStr); err != nil {
		t.Fatalf("restart on %s: %v", addrStr, err)
	}
	defer tcp2.Close()

	// --- Drain through the healed link, retrying until it empties. ------
	drainer := outbox.NewDrainer(box, func(ch *outbox.Chunk) error {
		_, err := remote.UploadItems(ch.Nonce, ch.Items)
		return err
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := drainer.DrainOnce()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("outbox never drained: %d chunks left: %v", box.Len(), err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// --- Exactly-once accounting. ---------------------------------------
	final := srv2.Stats()
	gotImages, gotBytes := final.Images, final.BytesReceived
	if int64(gotImages) != wantImages || gotBytes != wantBytes {
		t.Fatalf("after partition+restart+drain: %d images / %d bytes, clean run had %d / %d",
			gotImages, gotBytes, wantImages, wantBytes)
	}
	// The spill directory must be empty again (acks removed the files).
	box2, err := outbox.Open(outbox.Config{Dir: filepath.Join(stateDir, "outbox")})
	if err != nil {
		t.Fatal(err)
	}
	if box2.Len() != 0 {
		t.Fatalf("%d chunk files survived the drain", box2.Len())
	}
	if st := box.Stats(); st.Replayed != int64(wantChunks) {
		t.Fatalf("outbox.replayed = %d, want %d", st.Replayed, wantChunks)
	}
}
