package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"bees/internal/blockstore"
	"bees/internal/features"
)

// encodeFrame returns the full frame bytes for a message, for seeding.
func encodeFrame(tb testing.TB, msg any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msg); err != nil {
		tb.Fatalf("WriteFrame(%T): %v", msg, err)
	}
	return buf.Bytes()
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder, seeded with
// a valid encoding of every message type, each again with one trailing
// byte, and with frames of the two reserved type numbers. The decoder
// must never panic, and anything it accepts must re-encode to the same
// frame bytes: a decoder that skipped a trailing byte would fail here.
// Hello is exempt, as documented: it ignores bytes past its fields.
func FuzzReadFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	seeds := []any{
		&QueryRequest{Sets: []*features.BinarySet{randomSet(rng, 3), randomSet(rng, 0)}},
		&QueryResponse{MaxSims: []float64{0, 0.25, 1}},
		&StatsRequest{},
		&StatsResponse{Images: 3, BytesReceived: 12345},
		&ErrorResponse{Message: "boom"},
		&TelemetryPush{Snapshot: []byte(`{"counters":{}}`)},
		&TelemetryAck{},
		&UploadBatchRequest{Nonce: 4, Items: []UploadBatchItem{{Set: randomSet(rng, 1), GroupID: 2, Blob: []byte("blob")}}},
		&UploadBatchResponse{IDs: []int64{4, 5}},
		&BusyResponse{RetryAfterMs: 250},
		&Hello{Version: ProtocolVersion, Features: FeatureBlocks},
		&BlockQuery{Hashes: []blockstore.Hash{blockstore.HashBlock([]byte("seed"))}},
		&BlockQueryResponse{Have: []bool{true, false, true}},
		&BlockPut{Blocks: []Block{{Hash: blockstore.HashBlock([]byte("seed")), Data: []byte("seed")}}},
		&BlockPutResponse{Stored: 1, Dup: 1},
		seedManifestCommit(),
		&ManifestCommitResponse{IDs: []int64{1, 2}},
		seedShardRoute(),
		&ShardRouteResponse{Have: []bool{true, false}, IDs: []int64{5}},
		&ShardQuery{Shards: []uint32{1, 4}, Limit: 24, Sets: []*features.BinarySet{randomSet(rng, 2)}},
		&ShardQueryResponse{
			Stats:  []ShardStat{{Shard: 1, Images: 2, Bytes: 64, NextID: 9}},
			PerSet: [][]ShardCandidate{{{ID: 3, Votes: 4, Sim: 0.5}}},
		},
		&ShardSync{Shard: 3},
		&ShardSyncResponse{
			Snapshot: []byte("snap"),
			Nonces:   []NonceEntry{{Nonce: 8, IDs: []int64{1, 2}}},
		},
	}
	for _, msg := range seeds {
		frame := encodeFrame(f, msg)
		f.Add(frame)
		f.Add(withTrailingByte(frame))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, byte(MsgQueryRequest)})
	f.Add([]byte{4, 0, 0, 0, byte(MsgQueryRequest), 0xff, 0xff, 0xff, 0xff})
	// The reserved numbers of the retired per-image upload frame: never
	// decodable, whatever follows.
	f.Add([]byte{8, 0, 0, 0, 3, 7, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{8, 0, 0, 0, 4, 99, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		frame := data[:5+binary.LittleEndian.Uint32(data)]
		if _, hello := msg.(*Hello); hello {
			return
		}
		if re := encodeFrame(t, msg); !bytes.Equal(re, frame) {
			t.Fatalf("decoded %T re-encodes differently\n got %x\nwant %x", msg, re, frame)
		}
	})
}

// withTrailingByte returns a copy of frame with one byte appended to its
// payload and the length field grown to match.
func withTrailingByte(frame []byte) []byte {
	out := append(append([]byte(nil), frame...), 0xa5)
	binary.LittleEndian.PutUint32(out, uint32(len(out)-5))
	return out
}

// trailingByteFix names the message types whose hand-written decoders
// accepted trailing bytes; DecodePayload rejects them.
var trailingByteFix = map[MsgType]bool{MsgQueryRequest: true, MsgQueryResponse: true, MsgStatsRequest: true}

// FuzzDecodeMatchesRef checks DecodePayload against decodePayloadRef,
// the hand-written decoders it replaced. The input is a frame: byte 4
// is the message type and everything past the 5-byte header is the
// payload (the length field is not read). Both must accept and reject
// the same inputs, and accepted messages must be equal, compared through
// their re-encoded payloads so that NaNs compare equal. The one allowed
// divergence is the trailing-byte fix: for the types in trailingByteFix
// the oracle accepts a payload with bytes past the message, and
// DecodePayload rejects it. Seeded with every frames.golden frame, each
// also with one trailing byte and with its last byte cut.
func FuzzDecodeMatchesRef(f *testing.F) {
	for _, h := range readGolden(f) {
		frame, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(withTrailingByte(frame))
		f.Add(frame[:len(frame)-1])
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) < 5 {
			return
		}
		typ, payload := MsgType(frame[4]), frame[5:]
		got, err := DecodePayload(typ, payload)
		want, refErr := decodePayloadRef(typ, payload)
		if refErr != nil {
			if err == nil {
				t.Fatalf("type %d: DecodePayload accepts what the oracle rejects (%v)", typ, refErr)
			}
			return
		}
		wantPayload := encodePayload(t, want)
		if err != nil {
			if trailingByteFix[typ] && len(wantPayload) < len(payload) && bytes.HasPrefix(payload, wantPayload) {
				return
			}
			t.Fatalf("type %d: DecodePayload rejects what the oracle accepts: %v", typ, err)
		}
		if gotPayload := encodePayload(t, got); !bytes.Equal(gotPayload, wantPayload) {
			t.Fatalf("type %d: decoded messages differ\n got %x\nwant %x", typ, gotPayload, wantPayload)
		}
	})
}

// seedManifestCommit builds a structurally consistent commit frame for
// seeding the fuzzers.
func seedManifestCommit() *ManifestCommit {
	blob := blockstore.SynthPayload(1, 300)
	m := blockstore.ManifestOf(blob, 128)
	rng := rand.New(rand.NewSource(7))
	return &ManifestCommit{
		Nonce: 99,
		Items: []ManifestItem{{
			Set:        randomSet(rng, 2),
			GroupID:    -3,
			Lat:        1.25,
			Lon:        -4.5,
			Gain:       0.75,
			TotalBytes: m.TotalBytes,
			BlockSize:  uint32(m.BlockSize),
			Hashes:     m.Hashes,
		}},
	}
}

// FuzzBlockManifest hammers the ManifestCommit decoder: arbitrary
// payload bytes must never panic, anything accepted must re-encode to
// the identical payload (canonical encoding), and the decoded manifests
// must never announce more hashes than the payload carried.
func FuzzBlockManifest(f *testing.F) {
	f.Add(encodePayload(f, seedManifestCommit()))
	f.Add(encodePayload(f, &ManifestCommit{Nonce: 1}))
	f.Add(encodePayload(f, &ManifestCommit{Items: []ManifestItem{{BlockSize: 1 << 17}}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		msg, err := DecodePayload(MsgManifestCommit, payload)
		if err != nil {
			return
		}
		m, ok := msg.(*ManifestCommit)
		if !ok {
			t.Fatalf("decoded %T", msg)
		}
		for i := range m.Items {
			if len(m.Items[i].Hashes)*hashLen > len(payload) {
				t.Fatalf("item %d names %d hashes from a %d-byte payload",
					i, len(m.Items[i].Hashes), len(payload))
			}
		}
		if re := encodePayload(t, m); !bytes.Equal(re, payload) {
			t.Fatalf("re-encode altered payload\n got %x\nwant %x", re, payload)
		}
	})
}

// FuzzBlockPut hammers the BlockPut decoder with the same invariants:
// no panics, canonical re-encoding, and block data always aliased from
// (never larger than) the received payload.
func FuzzBlockPut(f *testing.F) {
	f.Add(encodePayload(f, &BlockPut{Blocks: []Block{
		{Hash: blockstore.HashBlock([]byte("a")), Data: []byte("a")},
		{Hash: blockstore.HashBlock(nil), Data: nil},
	}}))
	f.Add(encodePayload(f, &BlockPut{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		msg, err := DecodePayload(MsgBlockPut, payload)
		if err != nil {
			return
		}
		p, ok := msg.(*BlockPut)
		if !ok {
			t.Fatalf("decoded %T", msg)
		}
		total := 0
		for i := range p.Blocks {
			total += len(p.Blocks[i].Data)
		}
		if total > len(payload) {
			t.Fatalf("decoded %d block bytes from a %d-byte payload", total, len(payload))
		}
		if re := encodePayload(t, p); !bytes.Equal(re, payload) {
			t.Fatalf("re-encode altered payload\n got %x\nwant %x", re, payload)
		}
	})
}

// seedShardRoute builds a structurally consistent shard route frame —
// IDs matched to Items, a query hash, and one staged block — for
// seeding the fuzzers.
func seedShardRoute() *ShardRoute {
	blob := blockstore.SynthPayload(2, 200)
	m := blockstore.ManifestOf(blob, 128)
	rng := rand.New(rand.NewSource(11))
	return &ShardRoute{
		Nonce: 31,
		Shard: 2,
		IDs:   []int64{14},
		Query: m.Hashes,
		Blocks: []Block{
			{Hash: blockstore.HashBlock(blob[:128]), Data: blob[:128]},
		},
		Items: []ManifestItem{{
			Set:        randomSet(rng, 2),
			GroupID:    6,
			Lat:        0.5,
			Lon:        -0.25,
			Gain:       1.5,
			TotalBytes: m.TotalBytes,
			BlockSize:  uint32(m.BlockSize),
			Hashes:     m.Hashes,
		}},
	}
}

// FuzzShardRoute hammers the ShardRoute decoder: arbitrary payload
// bytes must never panic, anything accepted must re-encode to the
// identical payload, carry exactly one router ID per committed item,
// and never announce more hashes or block bytes than the payload held.
func FuzzShardRoute(f *testing.F) {
	f.Add(encodePayload(f, seedShardRoute()))
	f.Add(encodePayload(f, &ShardRoute{Nonce: 1, Shard: 7}))
	f.Add(encodePayload(f, &ShardRoute{Flags: ShardRouteForwarded, Query: []blockstore.Hash{blockstore.HashBlock(nil)}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		msg, err := DecodePayload(MsgShardRoute, payload)
		if err != nil {
			return
		}
		m, ok := msg.(*ShardRoute)
		if !ok {
			t.Fatalf("decoded %T", msg)
		}
		if len(m.IDs) != len(m.Items) {
			t.Fatalf("decoder accepted %d ids for %d items", len(m.IDs), len(m.Items))
		}
		total := len(m.Query) * hashLen
		for i := range m.Blocks {
			total += len(m.Blocks[i].Data)
		}
		for i := range m.Items {
			total += len(m.Items[i].Hashes) * hashLen
		}
		if total > len(payload) {
			t.Fatalf("decoded %d content bytes from a %d-byte payload", total, len(payload))
		}
		if re := encodePayload(t, m); !bytes.Equal(re, payload) {
			t.Fatalf("re-encode altered payload\n got %x\nwant %x", re, payload)
		}
	})
}

// FuzzShardSync hammers the ShardSyncResponse decoder (the request is a
// fixed-width trivial frame; the response carries the whole replica
// state): no panics, canonical re-encoding, and the snapshot plus nonce
// window never announce more bytes than the payload carried.
func FuzzShardSync(f *testing.F) {
	f.Add(encodePayload(f, &ShardSyncResponse{
		Snapshot: []byte("BEES-snapshot"),
		Nonces:   []NonceEntry{{Nonce: 5, IDs: []int64{0, 1}}, {Nonce: 6}},
	}))
	f.Add(encodePayload(f, &ShardSyncResponse{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		msg, err := DecodePayload(MsgShardSyncResponse, payload)
		if err != nil {
			return
		}
		m, ok := msg.(*ShardSyncResponse)
		if !ok {
			t.Fatalf("decoded %T", msg)
		}
		total := len(m.Snapshot)
		for i := range m.Nonces {
			total += minNonceEntryBytes + len(m.Nonces[i].IDs)*8
		}
		if total > len(payload) {
			t.Fatalf("decoded %d content bytes from a %d-byte payload", total, len(payload))
		}
		if re := encodePayload(t, m); !bytes.Equal(re, payload) {
			t.Fatalf("re-encode altered payload\n got %x\nwant %x", re, payload)
		}
	})
}

// FuzzShardQuery hammers the ShardQuery decoder — the one cluster
// request whose two counts (shards, sets) are both attacker-chosen:
// no panics, canonical re-encoding, and neither count may make the
// decoder hold more than the payload could carry (a 4-byte id per
// shard, a 4-byte header per set, 32 bytes per descriptor).
func FuzzShardQuery(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	f.Add(encodePayload(f, &ShardQuery{Shards: []uint32{1, 4, 7}, Limit: 24,
		Sets: []*features.BinarySet{randomSet(rng, 2), randomSet(rng, 0), randomSet(rng, 1)}}))
	f.Add(encodePayload(f, &ShardQuery{Shards: []uint32{0}})) // stats-only probe
	f.Add(encodePayload(f, &ShardQuery{}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                                      // 2^32-1 shards, none carried
	f.Add([]byte{0, 0, 0, 0, 24, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})             // 2^32-1 sets, none carried
	f.Add([]byte{0, 0, 0, 0, 24, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x07}) // one set of 2^27-1 descriptors
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		msg, err := DecodePayload(MsgShardQuery, payload)
		if err != nil {
			return
		}
		m, ok := msg.(*ShardQuery)
		if !ok {
			t.Fatalf("decoded %T", msg)
		}
		held := cap(m.Shards)*4 + cap(m.Sets)*4
		for _, set := range m.Sets {
			held += cap(set.Descriptors) * 32
		}
		if held > len(payload) {
			t.Fatalf("decoder holds room for %d content bytes from a %d-byte payload", held, len(payload))
		}
		if re := encodePayload(t, m); !bytes.Equal(re, payload) {
			t.Fatalf("re-encode altered payload\n got %x\nwant %x", re, payload)
		}
	})
}

// encodePayload returns just the payload bytes of a message (no frame
// header), for seeding the payload-level fuzzers.
func encodePayload(tb testing.TB, msg any) []byte {
	tb.Helper()
	frame := encodeFrame(tb, msg)
	return frame[5:]
}
