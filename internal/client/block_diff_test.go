package client

import (
	"reflect"
	"testing"

	"bees/internal/features"
	"bees/internal/server"
	"bees/internal/telemetry"
)

// TestBlockPathMatchesWholeImagePath is the differential proof behind
// the one upload path: the same seeded chunk uploaded through the delta
// path over TCP (query → put → commit) and handed whole — images inline —
// to an in-process server through UploadItems must leave the two servers
// with identical accounting, identical upload metadata, and identical
// index answers. If these diverge, block transfer isn't a transport
// detail anymore — it changes what the server believes it received.
func TestBlockPathMatchesWholeImagePath(t *testing.T) {
	if testing.Short() {
		t.Skip("renders feature sets")
	}
	items := blockChaosItems(t)
	sets := make([]*features.BinarySet, len(items))
	for i, it := range items {
		sets[i] = it.Set
	}

	srv, addr := startServer(t)
	tel := telemetry.NewRegistry()
	c, err := DialOptions(addr, blockChaosOptions(11, tel, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := NewRemoteServer(c).UploadItems(c.NewNonce(), items); err != nil {
		t.Fatalf("block-path upload: %v", err)
	}
	if tel.Snapshot().Counters["client.blocks.sent"] == 0 {
		t.Fatal("block path moved no blocks — the differential compares nothing")
	}
	blocks := srv
	whole := server.NewDefault()
	if _, err := whole.UploadItems(1, items); err != nil {
		t.Fatalf("in-process upload: %v", err)
	}

	if blocks.Stats() != whole.Stats() {
		t.Fatalf("server accounting diverged: blocks=%+v whole=%+v", blocks.Stats(), whole.Stats())
	}
	if b, w := blocks.UploadedMetas(), whole.UploadedMetas(); !reflect.DeepEqual(b, w) {
		t.Fatalf("uploaded metadata diverged:\nblocks: %+v\nwhole:  %+v", b, w)
	}
	bSims, wSims := blocks.QueryMaxBatch(sets), whole.QueryMaxBatch(sets)
	if !reflect.DeepEqual(bSims, wSims) {
		t.Fatalf("index answers diverged: blocks=%v whole=%v", bSims, wSims)
	}
	for _, sim := range bSims {
		if sim != 1 {
			t.Fatalf("re-querying an uploaded image's own set should be an exact hit, got %v", bSims)
		}
	}
}
