package client

import (
	"reflect"
	"testing"

	"bees/internal/features"
	"bees/internal/server"
	"bees/internal/telemetry"
)

// TestBlockPathMatchesWholeImagePath is the differential proof behind
// the transparent fallback: the same seeded chunk uploaded once through
// the delta path (query → put → commit) and once through the whole-image
// batch frame — the path a server started without block transfer
// (beesd -blocks=false) negotiates — must leave two servers with
// identical accounting, identical upload metadata, and identical index
// answers. If these diverge, negotiation isn't a transport detail
// anymore — it changes what the server believes it received.
func TestBlockPathMatchesWholeImagePath(t *testing.T) {
	if testing.Short() {
		t.Skip("renders feature sets")
	}
	items := blockChaosItems(t)
	sets := make([]*features.BinarySet, len(items))
	for i, it := range items {
		sets[i] = it.Set
	}

	type result struct {
		stats      server.Stats
		metas      []server.UploadMeta
		sims       []float64
		blocksSent int64
	}
	upload := func(disableBlocks bool, seed int64) result {
		t.Helper()
		srv, addr := startServerConfig(t, server.TCPConfig{DisableBlocks: disableBlocks})
		tel := telemetry.NewRegistry()
		c, err := DialOptions(addr, blockChaosOptions(seed, tel, nil))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		remote := NewRemoteServer(c)
		if _, err := remote.UploadItems(c.NewNonce(), items); err != nil {
			t.Fatalf("upload (disableBlocks=%v): %v", disableBlocks, err)
		}
		return result{
			stats:      srv.Stats(),
			metas:      srv.UploadedMetas(),
			sims:       srv.QueryMaxBatch(sets),
			blocksSent: tel.Snapshot().Counters["client.blocks.sent"],
		}
	}

	blocks := upload(false, 11)
	legacy := upload(true, 12)

	if blocks.blocksSent == 0 {
		t.Fatal("block path moved no blocks — the differential compares nothing")
	}
	if legacy.blocksSent != 0 {
		t.Fatalf("whole-image path sent %d blocks to a server without block transfer", legacy.blocksSent)
	}
	if blocks.stats != legacy.stats {
		t.Fatalf("server accounting diverged: blocks=%+v legacy=%+v", blocks.stats, legacy.stats)
	}
	if !reflect.DeepEqual(blocks.metas, legacy.metas) {
		t.Fatalf("uploaded metadata diverged:\nblocks: %+v\nlegacy: %+v", blocks.metas, legacy.metas)
	}
	if !reflect.DeepEqual(blocks.sims, legacy.sims) {
		t.Fatalf("index answers diverged: blocks=%v legacy=%v", blocks.sims, legacy.sims)
	}
	for _, sim := range blocks.sims {
		if sim != 1 {
			t.Fatalf("re-querying an uploaded image's own set should be an exact hit, got %v", blocks.sims)
		}
	}
}
