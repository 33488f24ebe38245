// Package wire defines the binary protocol between BEES clients and the
// cloud server: length-prefixed frames carrying feature-batch queries,
// image uploads and stats requests. The prototype (cmd/beesd, cmd/beesctl)
// speaks this protocol over TCP; simulations use the server in-process.
//
// Frame layout: [u32 payload length][u8 message type][payload].
// Integers are little-endian. Descriptors travel as raw 32-byte blocks.
//
// One codec (codec.go): every payload is read through Reader, a
// bounds-checked cursor, and written through the append helpers beside
// it. The server's WAL records and snapshot stream and the outbox's
// chunk files use the same Reader and helpers, so all four formats share
// one set of bounds checks.
//
// Limits and safety: a frame's announced payload length is capped at
// MaxFrameBytes; a count field that the rest of the payload cannot hold
// is rejected before anything is allocated, so a malformed count cannot
// force a large allocation. Every decoder rejects truncated input and
// trailing bytes with an error rather than a panic — except Hello, which
// ignores bytes past the fields it knows so a later revision can append
// fields. The error names the message type, and a decode error is
// grounds for the receiver to drop the connection (the stream may be
// desynchronized).
//
// Retry semantics: the protocol itself is a strict one-request/
// one-response alternation per connection. Queries and stats requests
// are read-only and naturally idempotent. Every upload frame
// (ManifestCommit, ShardRoute) carries a
// client-chosen Nonce so a retried upload (the client saw no response,
// the server may or may not have applied it) can be deduplicated
// server-side: the server replays the originally assigned IDs instead of
// storing the images twice. Nonce 0 means "no retry protection".
//
// Overload: a server past its high-water mark may answer any query or
// upload with BusyResponse instead of processing it. Busy carries a
// retry-after hint; the client holds further requests until it expires
// without spending retry budget (the transport worked — the server shed
// load on purpose). A request answered Busy was not applied, so resending
// it (same nonce) later is safe.
//
// Batch-first path: QueryRequest carries a whole batch of feature sets
// (one CBRD round trip per batch), and a device uploads a whole chunk of
// images under one nonce, so the chunk is applied exactly once and a
// replay is answered with the originally assigned IDs. The chunk travels
// as the block-transfer flow (blocks.go). Message numbers 3 and 4 belonged
// to a retired per-image upload frame; they stay reserved and decode as
// unknown types. UploadBatchRequest, the retired whole-image upload frame,
// keeps its codec for the benchmark's frame-cost walk only: no client
// sends it, and a server answers it with ErrorResponse.
package wire

import (
	"errors"
	"fmt"
	"io"
	"math"

	"bees/internal/features"
)

// MsgType identifies a frame's payload.
type MsgType uint8

// Message types.
const (
	MsgQueryRequest MsgType = iota + 1
	MsgQueryResponse
	_ // 3: retired per-image upload request; reserved, never reused
	_ // 4: retired per-image upload response; reserved, never reused
	MsgStatsRequest
	MsgStatsResponse
	MsgError
	MsgTelemetryPush
	MsgTelemetryAck
	MsgUploadBatchRequest
	MsgUploadBatchResponse
	MsgBusy
	MsgHello
	MsgBlockQuery
	MsgBlockQueryResponse
	MsgBlockPut
	MsgBlockPutResponse
	MsgManifestCommit
	MsgManifestCommitResponse
	MsgShardRoute
	MsgShardRouteResponse
	MsgShardQuery
	MsgShardQueryResponse
	MsgShardSync
	MsgShardSyncResponse
)

// MaxFrameBytes bounds a frame to keep a malformed peer from forcing a
// huge allocation.
const MaxFrameBytes = 64 << 20

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameBytes")

// ErrUnencodable is wrapped by WriteFrame when the message type is not
// part of the protocol; nothing was written, so the stream is intact.
var ErrUnencodable = errors.New("wire: unencodable message")

// QueryRequest asks for the maximum stored similarity of each feature set.
type QueryRequest struct {
	Sets []*features.BinarySet
}

// QueryResponse returns one similarity per queried set, in order.
type QueryResponse struct {
	MaxSims []float64
}

// UploadBatchItem is one image of an UploadBatchRequest.
type UploadBatchItem struct {
	Set     *features.BinarySet
	GroupID int64
	Lat     float64
	Lon     float64
	// Gain is the item's submodular marginal gain (see ManifestItem.Gain).
	Gain float64
	// Blob is the (compressed) image payload; only its length matters to
	// the server's accounting.
	Blob []byte
}

// UploadBatchRequest is the retired whole-image upload frame: a window
// of images with their payloads inline, under one nonce. Only its codec
// remains (see the package comment); no server applies it.
type UploadBatchRequest struct {
	Nonce uint64
	Items []UploadBatchItem
}

// UploadBatchResponse is the retired acknowledgement of an
// UploadBatchRequest: one image ID per item, in order.
type UploadBatchResponse struct {
	IDs []int64
}

// BusyResponse is the server's load-shedding answer: instead of queueing
// a request behind an overloaded handler (and stalling every connection),
// the server answers immediately and tells the client when to come back.
// It is a valid response to any shedable request (queries and uploads).
// A busy answer carries no result and must not consume the client's
// retry budget — the transport worked; the server made a policy decision.
type BusyResponse struct {
	// RetryAfterMs is how long the client should hold further requests
	// before probing again, in milliseconds.
	RetryAfterMs uint32
}

// StatsRequest asks for server counters.
type StatsRequest struct{}

// StatsResponse carries server counters.
type StatsResponse struct {
	Images        int64
	BytesReceived int64
}

// ErrorResponse reports a server-side failure.
type ErrorResponse struct {
	Message string
}

// TelemetryPush uploads a client-side telemetry snapshot so the server's
// /debug endpoint can expose per-stage pipeline metrics alongside its
// own. The payload is an opaque JSON-encoded telemetry.Snapshot — the
// wire layer does not interpret it, so the metric schema can evolve
// without a protocol change. Pushing is idempotent enough for the
// standard retry path: a duplicated push merges counters twice, which
// only overstates client activity and never corrupts server accounting.
type TelemetryPush struct {
	Snapshot []byte
}

// TelemetryAck acknowledges a TelemetryPush.
type TelemetryAck struct{}

// WriteFrame encodes a message and writes one frame: the header, then
// the payload.
func WriteFrame(w io.Writer, msg any) error {
	typ, payload, err := encode(msg)
	if err != nil {
		return err
	}
	header := make([]byte, 5)
	le.PutUint32(header, uint32(len(payload)))
	header[4] = byte(typ)
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("wire: write payload: %w", err)
		}
	}
	return nil
}

// encode returns a message's type and payload.
func encode(msg any) (MsgType, []byte, error) {
	var typ MsgType
	var b []byte
	switch m := msg.(type) {
	case *QueryRequest:
		typ, b = MsgQueryRequest, appendSets(b, m.Sets)
	case *QueryResponse:
		typ, b = MsgQueryResponse, le.AppendUint32(b, uint32(len(m.MaxSims)))
		for _, s := range m.MaxSims {
			b = le.AppendUint64(b, math.Float64bits(s))
		}
	case *StatsRequest:
		typ = MsgStatsRequest
	case *StatsResponse:
		typ, b = MsgStatsResponse, le.AppendUint64(le.AppendUint64(b, uint64(m.Images)), uint64(m.BytesReceived))
	case *ErrorResponse:
		typ, b = MsgError, append(b, m.Message...)
	case *TelemetryPush:
		typ, b = MsgTelemetryPush, m.Snapshot
	case *TelemetryAck:
		typ = MsgTelemetryAck
	case *UploadBatchRequest:
		typ, b = MsgUploadBatchRequest, le.AppendUint64(b, m.Nonce)
		b = le.AppendUint32(b, uint32(len(m.Items)))
		for i := range m.Items {
			it := &m.Items[i]
			b = le.AppendUint64(b, uint64(it.GroupID))
			b = le.AppendUint64(b, math.Float64bits(it.Lat))
			b = le.AppendUint64(b, math.Float64bits(it.Lon))
			b = le.AppendUint64(b, math.Float64bits(it.Gain))
			b = AppendSet(b, it.Set)
			b = append(le.AppendUint32(b, uint32(len(it.Blob))), it.Blob...)
		}
	case *UploadBatchResponse:
		typ, b = MsgUploadBatchResponse, appendIDs(b, m.IDs)
	case *BusyResponse:
		typ, b = MsgBusy, le.AppendUint32(b, m.RetryAfterMs)
	case *Hello:
		typ, b = MsgHello, le.AppendUint64(le.AppendUint32(b, m.Version), m.Features)
	case *BlockQuery:
		typ, b = MsgBlockQuery, AppendHashes(b, m.Hashes)
	case *BlockQueryResponse:
		typ, b = MsgBlockQueryResponse, appendBitmap(b, m.Have)
	case *BlockPut:
		typ, b = MsgBlockPut, appendBlocks(b, m.Blocks)
	case *BlockPutResponse:
		typ, b = MsgBlockPutResponse, le.AppendUint32(le.AppendUint32(b, m.Stored), m.Dup)
	case *ManifestCommit:
		typ, b = MsgManifestCommit, appendManifestItems(le.AppendUint64(b, m.Nonce), m.Items)
	case *ManifestCommitResponse:
		typ, b = MsgManifestCommitResponse, appendIDs(b, m.IDs)
	case *ShardRoute:
		typ, b = MsgShardRoute, le.AppendUint64(b, m.Nonce)
		b = le.AppendUint32(b, m.Shard)
		b = le.AppendUint32(b, m.Flags)
		b = appendIDs(b, m.IDs)
		b = AppendHashes(b, m.Query)
		b = appendBlocks(b, m.Blocks)
		b = appendManifestItems(b, m.Items)
	case *ShardRouteResponse:
		typ, b = MsgShardRouteResponse, appendIDs(appendBitmap(b, m.Have), m.IDs)
	case *ShardQuery:
		typ, b = MsgShardQuery, le.AppendUint32(b, uint32(len(m.Shards)))
		for _, s := range m.Shards {
			b = le.AppendUint32(b, s)
		}
		b = appendSets(le.AppendUint32(b, m.Limit), m.Sets)
	case *ShardQueryResponse:
		typ, b = MsgShardQueryResponse, le.AppendUint32(b, uint32(len(m.Stats)))
		for _, st := range m.Stats {
			b = le.AppendUint32(b, st.Shard)
			b = le.AppendUint64(b, uint64(st.Images))
			b = le.AppendUint64(b, uint64(st.Bytes))
			b = le.AppendUint64(b, uint64(st.NextID))
		}
		b = le.AppendUint32(b, uint32(len(m.PerSet)))
		for _, cands := range m.PerSet {
			b = le.AppendUint32(b, uint32(len(cands)))
			for _, c := range cands {
				b = le.AppendUint64(b, uint64(c.ID))
				b = le.AppendUint32(b, c.Votes)
				b = le.AppendUint64(b, math.Float64bits(c.Sim))
			}
		}
	case *ShardSync:
		typ, b = MsgShardSync, le.AppendUint32(b, m.Shard)
	case *ShardSyncResponse:
		typ, b = MsgShardSyncResponse, append(le.AppendUint32(b, uint32(len(m.Snapshot))), m.Snapshot...)
		b = le.AppendUint32(b, uint32(len(m.Nonces)))
		for _, e := range m.Nonces {
			b = appendIDs(le.AppendUint64(b, e.Nonce), e.IDs)
		}
	default:
		return 0, nil, fmt.Errorf("%w: %T", ErrUnencodable, msg)
	}
	return typ, b, nil
}

// ReadFrame reads one frame and decodes its message.
func ReadFrame(r io.Reader) (any, error) {
	typ, n, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: read payload: %w", err)
	}
	return DecodePayload(typ, payload)
}

// ReadHeader reads and validates one frame header, returning the message
// type and the announced payload length. Splitting the header read from
// the payload read lets a receiver make admission decisions (load
// shedding, byte accounting) before committing to read — or decode — the
// payload.
func ReadHeader(r io.Reader) (MsgType, int, error) {
	header := make([]byte, 5)
	if _, err := io.ReadFull(r, header); err != nil {
		return 0, 0, err
	}
	n := le.Uint32(header)
	if n > MaxFrameBytes {
		return 0, 0, ErrFrameTooLarge
	}
	return MsgType(header[4]), int(n), nil
}

// DecodePayload decodes one frame payload of the given type. Byte slices
// in the message (block data, blobs, snapshots) alias payload.
func DecodePayload(typ MsgType, payload []byte) (any, error) {
	r := NewReader(payload)
	var msg any
	switch typ {
	case MsgQueryRequest:
		msg = &QueryRequest{Sets: r.sets()}
	case MsgQueryResponse:
		m := &QueryResponse{MaxSims: make([]float64, r.Count(8))}
		for i := range m.MaxSims {
			m.MaxSims[i] = r.F64()
		}
		msg = m
	case MsgStatsRequest:
		msg = &StatsRequest{}
	case MsgStatsResponse:
		msg = &StatsResponse{Images: int64(r.U64()), BytesReceived: int64(r.U64())}
	case MsgError:
		msg = &ErrorResponse{Message: string(r.rest())}
	case MsgTelemetryPush:
		msg = &TelemetryPush{Snapshot: r.rest()}
	case MsgTelemetryAck:
		msg = &TelemetryAck{}
	case MsgUploadBatchRequest:
		m := &UploadBatchRequest{Nonce: r.U64()}
		m.Items = make([]UploadBatchItem, r.Count(minUploadBatchItemBytes))
		for i := 0; i < len(m.Items) && r.err == nil; i++ {
			m.Items[i] = UploadBatchItem{GroupID: int64(r.U64()), Lat: r.F64(), Lon: r.F64(), Gain: r.F64(),
				Set: r.set(), Blob: r.Bytes(int(r.U32()))}
		}
		msg = m
	case MsgUploadBatchResponse:
		msg = &UploadBatchResponse{IDs: r.ids()}
	case MsgBusy:
		msg = &BusyResponse{RetryAfterMs: r.U32()}
	case MsgHello:
		msg = &Hello{Version: r.U32(), Features: r.U64()}
		// Bytes past the known fields are ignored: a later revision may
		// append fields, and an old receiver must still read its part.
		r.rest()
	case MsgBlockQuery:
		msg = &BlockQuery{Hashes: r.Hashes()}
	case MsgBlockQueryResponse:
		msg = &BlockQueryResponse{Have: r.bitmap()}
	case MsgBlockPut:
		msg = &BlockPut{Blocks: r.blocks()}
	case MsgBlockPutResponse:
		msg = &BlockPutResponse{Stored: r.U32(), Dup: r.U32()}
	case MsgManifestCommit:
		msg = &ManifestCommit{Nonce: r.U64(), Items: r.manifestItems()}
	case MsgManifestCommitResponse:
		msg = &ManifestCommitResponse{IDs: r.ids()}
	case MsgShardRoute:
		m := &ShardRoute{Nonce: r.U64(), Shard: r.U32(), Flags: r.U32(),
			IDs: r.ids(), Query: r.Hashes(), Blocks: r.blocks(), Items: r.manifestItems()}
		// Every committed item needs its router-assigned ID; a frame where
		// the two lists disagree cannot be applied, so the handler never
		// sees one.
		if len(m.IDs) != len(m.Items) {
			r.fail(errors.New("id/item count mismatch"))
		}
		msg = m
	case MsgShardRouteResponse:
		msg = &ShardRouteResponse{Have: r.bitmap(), IDs: r.ids()}
	case MsgShardQuery:
		m := &ShardQuery{Shards: make([]uint32, r.Count(4))}
		for i := range m.Shards {
			m.Shards[i] = r.U32()
		}
		m.Limit, m.Sets = r.U32(), r.sets()
		msg = m
	case MsgShardQueryResponse:
		m := &ShardQueryResponse{Stats: make([]ShardStat, r.Count(shardStatBytes))}
		for i := range m.Stats {
			m.Stats[i] = ShardStat{Shard: r.U32(), Images: int64(r.U64()), Bytes: int64(r.U64()), NextID: int64(r.U64())}
		}
		m.PerSet = make([][]ShardCandidate, r.Count(4))
		for i := 0; i < len(m.PerSet) && r.err == nil; i++ {
			cands := make([]ShardCandidate, r.Count(shardCandidateBytes))
			for j := range cands {
				cands[j] = ShardCandidate{ID: int64(r.U64()), Votes: r.U32(), Sim: r.F64()}
			}
			m.PerSet[i] = cands
		}
		msg = m
	case MsgShardSync:
		msg = &ShardSync{Shard: r.U32()}
	case MsgShardSyncResponse:
		m := &ShardSyncResponse{Snapshot: r.Bytes(int(r.U32()))}
		m.Nonces = make([]NonceEntry, r.Count(minNonceEntryBytes))
		for i := 0; i < len(m.Nonces) && r.err == nil; i++ {
			m.Nonces[i] = NonceEntry{Nonce: r.U64(), IDs: r.ids()}
		}
		msg = m
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", typ)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wire: decode %T: %w", msg, err)
	}
	return msg, nil
}
