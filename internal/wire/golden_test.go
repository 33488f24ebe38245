package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bees/internal/blockstore"
	"bees/internal/features"
)

var updateGolden = flag.Bool("update", false, "rewrite the wire golden fixtures")

// goldenFrames is the canonical frame set: one instance of every message
// type with fixed contents. The encoded bytes are pinned in
// testdata/frames.golden so any accidental change to the wire format —
// field order, widths, endianness, a new mandatory field — fails loudly
// instead of silently desynchronizing deployed clients and servers.
// (FuzzReadFrame covers decoder robustness; this covers format
// stability.)
func goldenFrames() []struct {
	name string
	msg  any
} {
	set := &features.BinarySet{Descriptors: []features.Descriptor{
		{0x0102030405060708, 0x1112131415161718, 0x2122232425262728, 0x3132333435363738},
		{0xfffefdfcfbfaf9f8, 0, 1, 0x8000000000000000},
	}}
	return []struct {
		name string
		msg  any
	}{
		{"query_request", &QueryRequest{Sets: []*features.BinarySet{set, {}}}},
		{"query_response", &QueryResponse{MaxSims: []float64{0, 0.013, 1}}},
		{"stats_request", &StatsRequest{}},
		{"stats_response", &StatsResponse{Images: 7, BytesReceived: 9000}},
		{"error_response", &ErrorResponse{Message: "boom"}},
		{"telemetry_push", &TelemetryPush{Snapshot: []byte(`{"counters":{"pipeline.batches":1}}`)}},
		{"telemetry_ack", &TelemetryAck{}},
		{"upload_batch_request", &UploadBatchRequest{
			Nonce: 0x0123456789abcdef,
			Items: []UploadBatchItem{
				{Set: set, GroupID: 3, Lat: -1.5, Lon: 2.25, Gain: 1.75, Blob: []byte("first")},
				{Set: &features.BinarySet{}, GroupID: -9, Blob: nil},
			},
		}},
		{"upload_batch_response", &UploadBatchResponse{IDs: []int64{7, -1, 8}}},
		{"busy_response", &BusyResponse{RetryAfterMs: 1500}},
		{"hello", &Hello{Version: 1, Features: FeatureBlocks | 1<<63}},
		{"block_query", &BlockQuery{Hashes: []blockstore.Hash{
			blockstore.HashBlock([]byte("block-a")),
			blockstore.HashBlock([]byte("block-b")),
		}}},
		{"block_query_response", &BlockQueryResponse{Have: []bool{true, false, true, true, false, false, false, true, true}}},
		{"block_put", &BlockPut{Blocks: []Block{
			{Hash: blockstore.HashBlock([]byte("block-a")), Data: []byte("block-a")},
			{Hash: blockstore.HashBlock([]byte("block-b")), Data: []byte("block-b")},
		}}},
		{"block_put_response", &BlockPutResponse{Stored: 3, Dup: 2}},
		{"manifest_commit", &ManifestCommit{
			Nonce: 0xfeedface00c0ffee,
			Items: []ManifestItem{
				{
					Set:        set,
					GroupID:    5,
					Lat:        48.8584,
					Lon:        2.2945,
					Gain:       0.5,
					TotalBytes: 14,
					BlockSize:  8,
					Hashes: []blockstore.Hash{
						blockstore.HashBlock([]byte("block-a")),
						blockstore.HashBlock([]byte("block-b")),
					},
				},
				{Set: &features.BinarySet{}, GroupID: -2, TotalBytes: 0, BlockSize: 131072},
			},
		}},
		{"manifest_commit_response", &ManifestCommitResponse{IDs: []int64{11, -1}}},
		{"shard_route", &ShardRoute{
			Nonce: 0xabad1dea5eed5eed,
			Shard: 5,
			Flags: ShardRouteForwarded,
			IDs:   []int64{17, 23},
			Query: []blockstore.Hash{blockstore.HashBlock([]byte("block-a"))},
			Blocks: []Block{
				{Hash: blockstore.HashBlock([]byte("block-b")), Data: []byte("block-b")},
			},
			Items: []ManifestItem{
				{
					Set:        set,
					GroupID:    9,
					Lat:        -33.8688,
					Lon:        151.2093,
					Gain:       0.25,
					TotalBytes: 7,
					BlockSize:  8,
					Hashes:     []blockstore.Hash{blockstore.HashBlock([]byte("block-b"))},
				},
				{Set: &features.BinarySet{}, GroupID: -4, TotalBytes: 0, BlockSize: 131072},
			},
		}},
		{"shard_route_response", &ShardRouteResponse{
			Have: []bool{true, false, true},
			IDs:  []int64{17, 23},
		}},
		{"shard_query", &ShardQuery{
			Shards: []uint32{0, 3, 7},
			Limit:  24,
			Sets:   []*features.BinarySet{set, {}},
		}},
		{"shard_query_response", &ShardQueryResponse{
			Stats: []ShardStat{
				{Shard: 0, Images: 12, Bytes: 4096, NextID: 31},
				{Shard: 3, Images: 0, Bytes: 0, NextID: 0},
			},
			PerSet: [][]ShardCandidate{
				{{ID: 4, Votes: 9, Sim: 0.875}, {ID: 30, Votes: 2, Sim: 0}},
				nil,
			},
		}},
		{"shard_sync", &ShardSync{Shard: 6}},
		{"shard_sync_response", &ShardSyncResponse{
			Snapshot: []byte("BEES-snapshot-bytes"),
			Nonces: []NonceEntry{
				{Nonce: 0x1122334455667788, IDs: []int64{3, 4, 5}},
				{Nonce: 0x99aabbccddeeff00, IDs: nil},
			},
		}},
	}
}

func goldenPath() string { return filepath.Join("testdata", "frames.golden") }

func readGolden(t testing.TB) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath())
	if err != nil {
		t.Fatalf("missing golden fixture (run `go test ./internal/wire -run TestGolden -update`): %v", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexBytes, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line: %q", line)
		}
		out[name] = hexBytes
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenFrames compares the canonical frame set against the
// checked-in hex fixtures, both directions: encode must reproduce the
// fixture bytes, and decoding the fixture bytes must round-trip to the
// identical encoding.
func TestGoldenFrames(t *testing.T) {
	frames := goldenFrames()
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# Canonical wire frames, hex-encoded: [u32 len][u8 type][payload], little-endian.\n")
		b.WriteString("# Regenerate with: go test ./internal/wire -run TestGolden -update\n")
		for _, fr := range frames {
			fmt.Fprintf(&b, "%s %s\n", fr.name, hex.EncodeToString(encodeFrame(t, fr.msg)))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	golden := readGolden(t)
	if len(golden) != len(frames) {
		t.Errorf("fixture has %d frames, test has %d — regenerate with -update", len(golden), len(frames))
	}
	for _, fr := range frames {
		wantHex, ok := golden[fr.name]
		if !ok {
			t.Errorf("%s: missing from golden fixture", fr.name)
			continue
		}
		enc := encodeFrame(t, fr.msg)
		if got := hex.EncodeToString(enc); got != wantHex {
			t.Errorf("%s: encoding changed\n got %s\nwant %s", fr.name, got, wantHex)
			continue
		}
		// Round trip: the fixture bytes decode and re-encode identically.
		want, err := hex.DecodeString(wantHex)
		if err != nil {
			t.Fatalf("%s: bad fixture hex: %v", fr.name, err)
		}
		msg, err := ReadFrame(bytes.NewReader(want))
		if err != nil {
			t.Errorf("%s: fixture no longer decodes: %v", fr.name, err)
			continue
		}
		if re := encodeFrame(t, msg); !bytes.Equal(re, want) {
			t.Errorf("%s: decode/encode round trip altered bytes\n got %x\nwant %x", fr.name, re, want)
		}
	}
}
