package wire

// The frame decoders as they were before every codec moved onto Reader,
// kept as the oracle FuzzDecodeMatchesRef checks DecodePayload against:
// one hand-written offset walk per message type. They differ from
// DecodePayload in one documented way only: QueryRequest, QueryResponse
// and StatsRequest accept trailing bytes here.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"bees/internal/blockstore"
	"bees/internal/features"
)

// minUploadBatchItemBytesRef is the smallest encodable item: four u64
// fields, an empty descriptor set header, an empty blob header.
const minUploadBatchItemBytesRef = 8 + 8 + 8 + 8 + 4 + 4

// minBlockPutBytesRef is the smallest encodable block: hash + length header.
const minBlockPutBytesRef = hashLen + 4

// minManifestItemBytesRef is the smallest encodable item: five u64 fields,
// a u32 block size, an empty descriptor-set header, an empty hash count.
const minManifestItemBytesRef = 8*5 + 4 + 4 + 4

// shardStatBytesRef and shardCandidateBytesRef are the fixed encodings used to
// bound decode-time preallocation.
const (
	shardStatBytesRef      = 4 + 8 + 8 + 8
	shardCandidateBytesRef = 8 + 4 + 8
)

// minNonceEntryBytesRef is the smallest encodable window entry: nonce plus
// an empty ID count.
const minNonceEntryBytesRef = 8 + 4

// decodePayloadRef decodes one frame payload of the given type.
func decodePayloadRef(typ MsgType, payload []byte) (any, error) {
	switch typ {
	case MsgQueryRequest:
		return decodeQueryRequestRef(payload)
	case MsgQueryResponse:
		return decodeQueryResponseRef(payload)
	case MsgStatsRequest:
		return &StatsRequest{}, nil
	case MsgStatsResponse:
		if len(payload) != 16 {
			return nil, errors.New("wire: bad stats response")
		}
		return &StatsResponse{
			Images:        int64(binary.LittleEndian.Uint64(payload)),
			BytesReceived: int64(binary.LittleEndian.Uint64(payload[8:])),
		}, nil
	case MsgError:
		return &ErrorResponse{Message: string(payload)}, nil
	case MsgTelemetryPush:
		return &TelemetryPush{Snapshot: payload}, nil
	case MsgTelemetryAck:
		if len(payload) != 0 {
			return nil, errors.New("wire: bad telemetry ack")
		}
		return &TelemetryAck{}, nil
	case MsgUploadBatchRequest:
		return decodeUploadBatchRequestRef(payload)
	case MsgUploadBatchResponse:
		return decodeUploadBatchResponseRef(payload)
	case MsgBusy:
		if len(payload) != 4 {
			return nil, errors.New("wire: bad busy response")
		}
		return &BusyResponse{RetryAfterMs: binary.LittleEndian.Uint32(payload)}, nil
	case MsgHello:
		return decodeHelloRef(payload)
	case MsgBlockQuery:
		return decodeBlockQueryRef(payload)
	case MsgBlockQueryResponse:
		return decodeBlockQueryResponseRef(payload)
	case MsgBlockPut:
		return decodeBlockPutRef(payload)
	case MsgBlockPutResponse:
		return decodeBlockPutResponseRef(payload)
	case MsgManifestCommit:
		return decodeManifestCommitRef(payload)
	case MsgManifestCommitResponse:
		return decodeManifestCommitResponseRef(payload)
	case MsgShardRoute:
		return decodeShardRouteRef(payload)
	case MsgShardRouteResponse:
		return decodeShardRouteResponseRef(payload)
	case MsgShardQuery:
		return decodeShardQueryRef(payload)
	case MsgShardQueryResponse:
		return decodeShardQueryResponseRef(payload)
	case MsgShardSync:
		return decodeShardSyncRef(payload)
	case MsgShardSyncResponse:
		return decodeShardSyncResponseRef(payload)
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", typ)
	}
}

func decodeSetRef(payload []byte) (*features.BinarySet, []byte, error) {
	if len(payload) < 4 {
		return nil, nil, errors.New("wire: truncated set header")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) < n*32 {
		return nil, nil, errors.New("wire: truncated descriptors")
	}
	set := &features.BinarySet{Descriptors: make([]features.Descriptor, n)}
	for i := 0; i < n; i++ {
		for w := 0; w < 4; w++ {
			set.Descriptors[i][w] = binary.LittleEndian.Uint64(payload[i*32+w*8:])
		}
	}
	return set, payload[n*32:], nil
}

func decodeQueryRequestRef(payload []byte) (*QueryRequest, error) {
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated query request")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	// The count is attacker-controlled; cap the preallocation by what the
	// remaining payload could possibly hold (each set needs at least a
	// 4-byte descriptor count) so a tiny frame cannot demand gigabytes.
	prealloc := n
	if max := len(payload) / 4; prealloc > max {
		prealloc = max
	}
	req := &QueryRequest{Sets: make([]*features.BinarySet, 0, prealloc)}
	for i := 0; i < n; i++ {
		set, rest, err := decodeSetRef(payload)
		if err != nil {
			return nil, err
		}
		req.Sets = append(req.Sets, set)
		payload = rest
	}
	return req, nil
}

func decodeQueryResponseRef(payload []byte) (*QueryResponse, error) {
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated query response")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if len(payload) < 4+8*n {
		return nil, errors.New("wire: truncated similarities")
	}
	resp := &QueryResponse{MaxSims: make([]float64, n)}
	for i := 0; i < n; i++ {
		resp.MaxSims[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[4+8*i:]))
	}
	return resp, nil
}

func decodeUploadBatchRequestRef(payload []byte) (*UploadBatchRequest, error) {
	if len(payload) < 12 {
		return nil, errors.New("wire: truncated upload batch request")
	}
	req := &UploadBatchRequest{Nonce: binary.LittleEndian.Uint64(payload)}
	n := int(binary.LittleEndian.Uint32(payload[8:]))
	payload = payload[12:]
	// The count is attacker-controlled; cap the preallocation by what the
	// remaining payload could actually hold.
	prealloc := n
	if max := len(payload) / minUploadBatchItemBytesRef; prealloc > max {
		prealloc = max
	}
	req.Items = make([]UploadBatchItem, 0, prealloc)
	for i := 0; i < n; i++ {
		if len(payload) < 32 {
			return nil, errors.New("wire: truncated upload batch item")
		}
		it := UploadBatchItem{
			GroupID: int64(binary.LittleEndian.Uint64(payload)),
			Lat:     math.Float64frombits(binary.LittleEndian.Uint64(payload[8:])),
			Lon:     math.Float64frombits(binary.LittleEndian.Uint64(payload[16:])),
			Gain:    math.Float64frombits(binary.LittleEndian.Uint64(payload[24:])),
		}
		set, rest, err := decodeSetRef(payload[32:])
		if err != nil {
			return nil, err
		}
		it.Set = set
		if len(rest) < 4 {
			return nil, errors.New("wire: truncated batch blob header")
		}
		blobLen := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if len(rest) < blobLen {
			return nil, errors.New("wire: truncated batch blob")
		}
		it.Blob = rest[:blobLen:blobLen]
		payload = rest[blobLen:]
		req.Items = append(req.Items, it)
	}
	if len(payload) != 0 {
		return nil, errors.New("wire: trailing bytes after upload batch")
	}
	return req, nil
}

func decodeUploadBatchResponseRef(payload []byte) (*UploadBatchResponse, error) {
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated upload batch response")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if len(payload) != 4+8*n {
		return nil, errors.New("wire: bad upload batch response length")
	}
	resp := &UploadBatchResponse{IDs: make([]int64, n)}
	for i := 0; i < n; i++ {
		resp.IDs[i] = int64(binary.LittleEndian.Uint64(payload[4+8*i:]))
	}
	return resp, nil
}

func decodeHelloRef(payload []byte) (*Hello, error) {
	// Tolerate (and discard) trailing bytes: a future revision may append
	// fields, and an old receiver must still read the part it knows.
	if len(payload) < 12 {
		return nil, errors.New("wire: truncated hello")
	}
	return &Hello{
		Version:  binary.LittleEndian.Uint32(payload),
		Features: binary.LittleEndian.Uint64(payload[4:]),
	}, nil
}

func decodeBlockQueryRef(payload []byte) (*BlockQuery, error) {
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated block query")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) != n*hashLen {
		return nil, errors.New("wire: bad block query length")
	}
	req := &BlockQuery{Hashes: make([]blockstore.Hash, n)}
	for i := 0; i < n; i++ {
		copy(req.Hashes[i][:], payload[i*hashLen:])
	}
	return req, nil
}

func decodeBlockQueryResponseRef(payload []byte) (*BlockQueryResponse, error) {
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated block query response")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	bitmap := payload[4:]
	if len(bitmap) != (n+7)/8 {
		return nil, errors.New("wire: bad block bitmap length")
	}
	// Trailing bits past n must be zero so every response has exactly one
	// encoding (the golden/round-trip gates rely on canonical bytes).
	if n%8 != 0 && len(bitmap) > 0 && bitmap[len(bitmap)-1]>>(n%8) != 0 {
		return nil, errors.New("wire: nonzero trailing bits in block bitmap")
	}
	resp := &BlockQueryResponse{Have: make([]bool, n)}
	for i := range resp.Have {
		resp.Have[i] = bitmap[i/8]&(1<<(i%8)) != 0
	}
	return resp, nil
}

func decodeBlockPutRef(payload []byte) (*BlockPut, error) {
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated block put")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	// The count is attacker-controlled; cap the preallocation by what the
	// remaining payload could actually hold.
	prealloc := n
	if max := len(payload) / minBlockPutBytesRef; prealloc > max {
		prealloc = max
	}
	req := &BlockPut{Blocks: make([]Block, 0, prealloc)}
	for i := 0; i < n; i++ {
		if len(payload) < minBlockPutBytesRef {
			return nil, errors.New("wire: truncated block")
		}
		var b Block
		copy(b.Hash[:], payload)
		dataLen := int(binary.LittleEndian.Uint32(payload[hashLen:]))
		payload = payload[minBlockPutBytesRef:]
		if len(payload) < dataLen {
			return nil, errors.New("wire: truncated block data")
		}
		b.Data = payload[:dataLen:dataLen]
		payload = payload[dataLen:]
		req.Blocks = append(req.Blocks, b)
	}
	if len(payload) != 0 {
		return nil, errors.New("wire: trailing bytes after block put")
	}
	return req, nil
}

func decodeBlockPutResponseRef(payload []byte) (*BlockPutResponse, error) {
	if len(payload) != 8 {
		return nil, errors.New("wire: bad block put response")
	}
	return &BlockPutResponse{
		Stored: binary.LittleEndian.Uint32(payload),
		Dup:    binary.LittleEndian.Uint32(payload[4:]),
	}, nil
}

func decodeManifestCommitRef(payload []byte) (*ManifestCommit, error) {
	if len(payload) < 12 {
		return nil, errors.New("wire: truncated manifest commit")
	}
	req := &ManifestCommit{Nonce: binary.LittleEndian.Uint64(payload)}
	n := int(binary.LittleEndian.Uint32(payload[8:]))
	payload = payload[12:]
	prealloc := n
	if max := len(payload) / minManifestItemBytesRef; prealloc > max {
		prealloc = max
	}
	req.Items = make([]ManifestItem, 0, prealloc)
	for i := 0; i < n; i++ {
		it, rest, err := decodeManifestItemRef(payload)
		if err != nil {
			return nil, err
		}
		payload = rest
		req.Items = append(req.Items, it)
	}
	if len(payload) != 0 {
		return nil, errors.New("wire: trailing bytes after manifest commit")
	}
	return req, nil
}

func decodeManifestCommitResponseRef(payload []byte) (*ManifestCommitResponse, error) {
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated manifest commit response")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if len(payload) != 4+8*n {
		return nil, errors.New("wire: bad manifest commit response length")
	}
	resp := &ManifestCommitResponse{IDs: make([]int64, n)}
	for i := 0; i < n; i++ {
		resp.IDs[i] = int64(binary.LittleEndian.Uint64(payload[4+8*i:]))
	}
	return resp, nil
}

func decodeShardRouteRef(payload []byte) (*ShardRoute, error) {
	if len(payload) < 20 {
		return nil, errors.New("wire: truncated shard route")
	}
	m := &ShardRoute{
		Nonce: binary.LittleEndian.Uint64(payload),
		Shard: binary.LittleEndian.Uint32(payload[8:]),
		Flags: binary.LittleEndian.Uint32(payload[12:]),
	}
	nIDs := int(binary.LittleEndian.Uint32(payload[16:]))
	payload = payload[20:]
	if len(payload) < nIDs*8 {
		return nil, errors.New("wire: truncated shard route ids")
	}
	if nIDs > 0 {
		m.IDs = make([]int64, nIDs)
		for i := range m.IDs {
			m.IDs[i] = int64(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	}
	payload = payload[nIDs*8:]
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated shard route query")
	}
	nQuery := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) < nQuery*hashLen {
		return nil, errors.New("wire: truncated shard route query hashes")
	}
	if nQuery > 0 {
		m.Query = make([]blockstore.Hash, nQuery)
		for i := range m.Query {
			copy(m.Query[i][:], payload[i*hashLen:])
		}
	}
	payload = payload[nQuery*hashLen:]
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated shard route blocks")
	}
	nBlocks := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	// The count is attacker-controlled; cap the preallocation by what the
	// remaining payload could actually hold.
	prealloc := nBlocks
	if max := len(payload) / minBlockPutBytesRef; prealloc > max {
		prealloc = max
	}
	if prealloc > 0 {
		m.Blocks = make([]Block, 0, prealloc)
	}
	for i := 0; i < nBlocks; i++ {
		if len(payload) < minBlockPutBytesRef {
			return nil, errors.New("wire: truncated shard route block")
		}
		var b Block
		copy(b.Hash[:], payload)
		dataLen := int(binary.LittleEndian.Uint32(payload[hashLen:]))
		payload = payload[minBlockPutBytesRef:]
		if len(payload) < dataLen {
			return nil, errors.New("wire: truncated shard route block data")
		}
		b.Data = payload[:dataLen:dataLen]
		payload = payload[dataLen:]
		m.Blocks = append(m.Blocks, b)
	}
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated shard route items")
	}
	nItems := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	prealloc = nItems
	if max := len(payload) / minManifestItemBytesRef; prealloc > max {
		prealloc = max
	}
	if prealloc > 0 {
		m.Items = make([]ManifestItem, 0, prealloc)
	}
	for i := 0; i < nItems; i++ {
		it, rest, err := decodeManifestItemRef(payload)
		if err != nil {
			return nil, err
		}
		m.Items = append(m.Items, it)
		payload = rest
	}
	if len(payload) != 0 {
		return nil, errors.New("wire: trailing bytes after shard route")
	}
	// Every committed item needs its router-assigned ID; a frame where the
	// two lists disagree cannot be applied and is rejected at the decoder
	// so the handler never sees it.
	if len(m.IDs) != len(m.Items) {
		return nil, errors.New("wire: shard route id/item count mismatch")
	}
	return m, nil
}

func decodeShardRouteResponseRef(payload []byte) (*ShardRouteResponse, error) {
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated shard route response")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	bitmapLen := (n + 7) / 8
	if len(payload) < bitmapLen {
		return nil, errors.New("wire: truncated shard route bitmap")
	}
	bitmap := payload[:bitmapLen]
	// Trailing bits past n must be zero: one state, one encoding.
	if n%8 != 0 && bitmapLen > 0 && bitmap[bitmapLen-1]>>(n%8) != 0 {
		return nil, errors.New("wire: nonzero trailing bits in shard route bitmap")
	}
	m := &ShardRouteResponse{}
	if n > 0 {
		m.Have = make([]bool, n)
		for i := range m.Have {
			m.Have[i] = bitmap[i/8]&(1<<(i%8)) != 0
		}
	}
	payload = payload[bitmapLen:]
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated shard route response ids")
	}
	nIDs := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) != nIDs*8 {
		return nil, errors.New("wire: bad shard route response length")
	}
	if nIDs > 0 {
		m.IDs = make([]int64, nIDs)
		for i := range m.IDs {
			m.IDs[i] = int64(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	}
	return m, nil
}

func decodeShardQueryRef(payload []byte) (*ShardQuery, error) {
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated shard query")
	}
	nShards := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) < nShards*4 {
		return nil, errors.New("wire: truncated shard query shards")
	}
	m := &ShardQuery{}
	if nShards > 0 {
		m.Shards = make([]uint32, nShards)
		for i := range m.Shards {
			m.Shards[i] = binary.LittleEndian.Uint32(payload[i*4:])
		}
	}
	payload = payload[nShards*4:]
	if len(payload) < 8 {
		return nil, errors.New("wire: truncated shard query header")
	}
	m.Limit = binary.LittleEndian.Uint32(payload)
	nSets := int(binary.LittleEndian.Uint32(payload[4:]))
	payload = payload[8:]
	prealloc := nSets
	if max := len(payload) / 4; prealloc > max {
		prealloc = max
	}
	if prealloc > 0 {
		m.Sets = make([]*features.BinarySet, 0, prealloc)
	}
	for i := 0; i < nSets; i++ {
		set, rest, err := decodeSetRef(payload)
		if err != nil {
			return nil, err
		}
		m.Sets = append(m.Sets, set)
		payload = rest
	}
	if len(payload) != 0 {
		return nil, errors.New("wire: trailing bytes after shard query")
	}
	return m, nil
}

func decodeShardQueryResponseRef(payload []byte) (*ShardQueryResponse, error) {
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated shard query response")
	}
	nStats := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) < nStats*shardStatBytesRef {
		return nil, errors.New("wire: truncated shard stats")
	}
	m := &ShardQueryResponse{}
	if nStats > 0 {
		m.Stats = make([]ShardStat, nStats)
		for i := range m.Stats {
			p := payload[i*shardStatBytesRef:]
			m.Stats[i] = ShardStat{
				Shard:  binary.LittleEndian.Uint32(p),
				Images: int64(binary.LittleEndian.Uint64(p[4:])),
				Bytes:  int64(binary.LittleEndian.Uint64(p[12:])),
				NextID: int64(binary.LittleEndian.Uint64(p[20:])),
			}
		}
	}
	payload = payload[nStats*shardStatBytesRef:]
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated shard query sets")
	}
	nSets := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	prealloc := nSets
	if max := len(payload) / 4; prealloc > max {
		prealloc = max
	}
	if prealloc > 0 {
		m.PerSet = make([][]ShardCandidate, 0, prealloc)
	}
	for i := 0; i < nSets; i++ {
		if len(payload) < 4 {
			return nil, errors.New("wire: truncated shard candidate count")
		}
		nCands := int(binary.LittleEndian.Uint32(payload))
		payload = payload[4:]
		if len(payload) < nCands*shardCandidateBytesRef {
			return nil, errors.New("wire: truncated shard candidates")
		}
		var cands []ShardCandidate
		if nCands > 0 {
			cands = make([]ShardCandidate, nCands)
			for j := range cands {
				p := payload[j*shardCandidateBytesRef:]
				cands[j] = ShardCandidate{
					ID:    int64(binary.LittleEndian.Uint64(p)),
					Votes: binary.LittleEndian.Uint32(p[8:]),
					Sim:   math.Float64frombits(binary.LittleEndian.Uint64(p[12:])),
				}
			}
		}
		payload = payload[nCands*shardCandidateBytesRef:]
		m.PerSet = append(m.PerSet, cands)
	}
	if len(payload) != 0 {
		return nil, errors.New("wire: trailing bytes after shard query response")
	}
	return m, nil
}

func decodeShardSyncRef(payload []byte) (*ShardSync, error) {
	if len(payload) != 4 {
		return nil, errors.New("wire: bad shard sync")
	}
	return &ShardSync{Shard: binary.LittleEndian.Uint32(payload)}, nil
}

func decodeShardSyncResponseRef(payload []byte) (*ShardSyncResponse, error) {
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated shard sync response")
	}
	snapLen := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if snapLen < 0 || len(payload) < snapLen {
		return nil, errors.New("wire: truncated shard sync snapshot")
	}
	m := &ShardSyncResponse{}
	if snapLen > 0 {
		m.Snapshot = payload[:snapLen:snapLen]
	}
	payload = payload[snapLen:]
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated shard sync nonces")
	}
	nNonces := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	prealloc := nNonces
	if max := len(payload) / minNonceEntryBytesRef; prealloc > max {
		prealloc = max
	}
	if prealloc > 0 {
		m.Nonces = make([]NonceEntry, 0, prealloc)
	}
	for i := 0; i < nNonces; i++ {
		if len(payload) < minNonceEntryBytesRef {
			return nil, errors.New("wire: truncated nonce entry")
		}
		e := NonceEntry{Nonce: binary.LittleEndian.Uint64(payload)}
		nIDs := int(binary.LittleEndian.Uint32(payload[8:]))
		payload = payload[minNonceEntryBytesRef:]
		if len(payload) < nIDs*8 {
			return nil, errors.New("wire: truncated nonce entry ids")
		}
		if nIDs > 0 {
			e.IDs = make([]int64, nIDs)
			for j := range e.IDs {
				e.IDs[j] = int64(binary.LittleEndian.Uint64(payload[j*8:]))
			}
		}
		payload = payload[nIDs*8:]
		m.Nonces = append(m.Nonces, e)
	}
	if len(payload) != 0 {
		return nil, errors.New("wire: trailing bytes after shard sync response")
	}
	return m, nil
}

// decodeManifestItemRef decodes one manifest item, returning the rest of
// the payload.
func decodeManifestItemRef(payload []byte) (ManifestItem, []byte, error) {
	var it ManifestItem
	if len(payload) < 44 {
		return it, nil, errors.New("wire: truncated manifest item")
	}
	it = ManifestItem{
		GroupID:    int64(binary.LittleEndian.Uint64(payload)),
		Lat:        math.Float64frombits(binary.LittleEndian.Uint64(payload[8:])),
		Lon:        math.Float64frombits(binary.LittleEndian.Uint64(payload[16:])),
		Gain:       math.Float64frombits(binary.LittleEndian.Uint64(payload[24:])),
		TotalBytes: int64(binary.LittleEndian.Uint64(payload[32:])),
		BlockSize:  binary.LittleEndian.Uint32(payload[40:]),
	}
	set, rest, err := decodeSetRef(payload[44:])
	if err != nil {
		return it, nil, err
	}
	it.Set = set
	if len(rest) < 4 {
		return it, nil, errors.New("wire: truncated manifest hash count")
	}
	nh := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if len(rest) < nh*hashLen {
		return it, nil, errors.New("wire: truncated manifest hashes")
	}
	it.Hashes = make([]blockstore.Hash, nh)
	for j := 0; j < nh; j++ {
		copy(it.Hashes[j][:], rest[j*hashLen:])
	}
	return it, rest[nh*hashLen:], nil
}
