package client

import (
	"reflect"
	"testing"
	"time"

	"bees/internal/baseline"
	"bees/internal/core"
	"bees/internal/dataset"
	"bees/internal/energy"
	"bees/internal/features"
	"bees/internal/netsim"
	"bees/internal/server"
	"bees/internal/telemetry"
)

// TestPipelineOverTCP runs BEES and the Direct, SmartEye and MRC
// baselines against a real TCP server through the RemoteServer adapter
// and checks each outcome matches an in-process run of the same
// workload: the report's counts and bytes, and what the server stored.
// PhotoNet is left out on purpose: its metadata query needs a
// server.MetadataServer, which RemoteServer is not, so over TCP it
// treats every image as unique.
func TestPipelineOverTCP(t *testing.T) {
	workload := func() *dataset.DisasterBatch { return dataset.NewDisasterBatch(700, 16, 4, 0.5) }
	newDev := func() *core.Device {
		return core.NewDevice(nil, netsim.NewLink(256000), energy.DefaultModel())
	}
	// Both servers start with the same index, so every scheme that
	// queries has images to eliminate across batches.
	twins := workload().ServerTwins
	twinSets := make([]*features.BinarySet, len(twins))
	for i, tw := range twins {
		twinSets[i] = features.ExtractORB(tw.Render(), features.DefaultConfig())
		tw.Free()
	}
	seed := func(srv *server.Server) {
		for i, tw := range twins {
			srv.SeedIndex(twinSets[i], server.UploadMeta{GroupID: tw.GroupID})
		}
	}

	for _, scheme := range []core.Scheme{baseline.NewBEES(), baseline.Direct{}, baseline.NewSmartEye(), baseline.NewMRC()} {
		t.Run(scheme.Name(), func(t *testing.T) {
			srv, addr := startServer(t)
			seed(srv)
			remote := NewRemoteServer(dial(t, addr))
			rRemote := scheme.ProcessBatch(newDev(), remote, workload().Batch)
			if err := remote.Err(); err != nil {
				t.Fatalf("transport errors: %v", err)
			}

			local := server.NewDefault()
			seed(local)
			rLocal := scheme.ProcessBatch(newDev(), local, workload().Batch)

			if rRemote.Uploaded != rLocal.Uploaded ||
				rRemote.CrossEliminated != rLocal.CrossEliminated ||
				rRemote.InBatchEliminated != rLocal.InBatchEliminated ||
				rRemote.ImageBytes != rLocal.ImageBytes ||
				rRemote.FeatureBytes != rLocal.FeatureBytes {
				t.Fatalf("remote run diverged from local: remote=%+v local=%+v", rRemote, rLocal)
			}
			// Every scheme that sends features queries the seeded index.
			if rRemote.Uploaded == 0 || (rRemote.FeatureBytes > 0 && rRemote.CrossEliminated == 0) {
				t.Fatalf("degenerate run proves nothing: %+v", rRemote)
			}
			st := srv.Stats()
			if want := local.Stats(); st != want {
				t.Fatalf("remote server stats %+v, in-process %+v", st, want)
			}
			if got, want := srv.UploadedMetas(), local.UploadedMetas(); !reflect.DeepEqual(got, want) {
				t.Fatalf("remote server metas %+v, in-process %+v", got, want)
			}
			if st.Images != rRemote.Uploaded {
				t.Fatalf("server stored %d, report says %d", st.Images, rRemote.Uploaded)
			}
			// The blob bytes crossing the wire are the reported image sizes.
			if st.BytesReceived != int64(rRemote.ImageBytes) {
				t.Fatalf("server received %d bytes, report says %d", st.BytesReceived, rRemote.ImageBytes)
			}
		})
	}
}

// TestRemoteQueryNilSet: a nil feature set in a batch query travels as
// an empty set, so the remote answer equals the in-process server's for
// the same input instead of the encoder panicking.
func TestRemoteQueryNilSet(t *testing.T) {
	srv, addr := startServer(t)
	set := &features.BinarySet{Descriptors: []features.Descriptor{{1, 2, 3, 4}, {5, 6, 7, 8}}}
	srv.SeedIndex(set, server.UploadMeta{GroupID: 1})
	query := []*features.BinarySet{nil, set}
	remote := NewRemoteServer(dial(t, addr))
	got := remote.QueryMaxBatch(query)
	if err := remote.Err(); err != nil {
		t.Fatalf("transport error: %v", err)
	}
	if want := srv.QueryMaxBatch(query); !reflect.DeepEqual(got, want) {
		t.Fatalf("remote sims %v, in-process server %v", got, want)
	}
}

// TestSecondBatchCrossBatchOverTCP checks that a replayed batch is
// eliminated as cross-batch redundancy by the remote index.
func TestSecondBatchCrossBatchOverTCP(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	remote := NewRemoteServer(c)
	dev := core.NewDevice(nil, netsim.NewLink(256000), energy.DefaultModel())
	scheme := baseline.NewBEES()

	first := dataset.NewDisasterBatch(701, 12, 0, 0)
	r1 := scheme.ProcessBatch(dev, remote, first.Batch)
	if r1.Uploaded == 0 {
		t.Fatal("first batch uploaded nothing")
	}
	again := dataset.NewDisasterBatch(701, 12, 0, 0)
	r2 := scheme.ProcessBatch(dev, remote, again.Batch)
	if r2.CrossEliminated < 10 {
		t.Fatalf("replayed batch only %d/12 eliminated", r2.CrossEliminated)
	}
	if err := remote.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteServerDegradesOnFailure verifies the disaster-mode behaviour:
// a dead connection yields similarity 0 and a failed, degraded upload
// instead of a crash.
func TestRemoteServerDegradesOnFailure(t *testing.T) {
	srv := server.NewDefault()
	tcp := server.NewTCP(srv)
	bound, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(bound.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tcp.Close()
	remote := NewRemoteServer(c)
	sets := testSets(t, 1)
	if sims := remote.QueryMaxBatch(sets); len(sims) != 1 || sims[0] != 0 {
		t.Fatalf("failed query returned %v", sims)
	}
	items := []server.UploadItem{{Set: sets[0], Meta: server.UploadMeta{Bytes: 10}}}
	if ids, err := remote.UploadItems(remote.NewUploadNonce(), items); err == nil || ids != nil {
		t.Fatalf("failed upload returned %v, %v", ids, err)
	}
	if remote.Err() == nil {
		t.Fatal("Err should report the failure")
	}
	if d := remote.TakeDegraded(); d != 2 {
		t.Fatalf("degraded %d requests, want 2 (one query set, one upload item)", d)
	}
}

// TestUploadBatchIsUploadItems pins that RemoteServer.UploadBatch is the
// one upload path under a fresh nonce, not a second one: against a
// block-capable server it moves blocks, the server ends up exactly where
// UploadItems leaves it, and a repeat of the same items is a new upload
// that moves no block.
func TestUploadBatchIsUploadItems(t *testing.T) {
	if testing.Short() {
		t.Skip("renders feature sets")
	}
	items := blockChaosItems(t)

	batchSrv, addr := startServer(t)
	tel := telemetry.NewRegistry()
	c, err := DialOptions(addr, blockChaosOptions(21, tel, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	remote := NewRemoteServer(c)
	if err := remote.UploadBatch(items); err != nil {
		t.Fatalf("UploadBatch: %v", err)
	}
	first := readBlockCounters(tel)
	if first.sent == 0 {
		t.Fatal("UploadBatch sent no blocks to a block-capable server")
	}

	itemsSrv, addr2 := startServer(t)
	c2, err := DialOptions(addr2, blockChaosOptions(22, telemetry.NewRegistry(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := NewRemoteServer(c2).UploadItems(c2.NewNonce(), items); err != nil {
		t.Fatalf("UploadItems: %v", err)
	}
	if got, want := batchSrv.Stats(), itemsSrv.Stats(); got != want {
		t.Fatalf("UploadBatch left stats %+v, UploadItems %+v", got, want)
	}
	if got, want := batchSrv.UploadedMetas(), itemsSrv.UploadedMetas(); !reflect.DeepEqual(got, want) {
		t.Fatalf("UploadBatch left metas %+v, UploadItems %+v", got, want)
	}
	if got, want := batchSrv.Blocks().Stats(), itemsSrv.Blocks().Stats(); got != want {
		t.Fatalf("UploadBatch left block store %+v, UploadItems %+v", got, want)
	}

	// The same items again: a fresh upload (each UploadBatch draws its own
	// nonce), but every block is already on the server.
	if err := remote.UploadBatch(items); err != nil {
		t.Fatalf("second UploadBatch: %v", err)
	}
	second := readBlockCounters(tel)
	if second.sent != first.sent {
		t.Fatalf("second UploadBatch sent %d blocks, want 0", second.sent-first.sent)
	}
	if d := second.skipped - first.skipped; d != first.sent+first.skipped {
		t.Fatalf("second UploadBatch skipped %d blocks, want all %d", d, first.sent+first.skipped)
	}
	if got := batchSrv.Stats().Images; got != 2*len(items) {
		t.Fatalf("server holds %d images after two batches, want %d", got, 2*len(items))
	}
}
