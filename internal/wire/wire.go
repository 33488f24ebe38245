// Package wire defines the binary protocol between BEES clients and the
// cloud server: length-prefixed frames carrying feature-batch queries,
// image uploads and stats requests. The prototype (cmd/beesd, cmd/beesctl)
// speaks this protocol over TCP; simulations use the server in-process.
//
// Frame layout: [u32 payload length][u8 message type][payload].
// Integers are little-endian. Descriptors travel as raw 32-byte blocks.
//
// Limits and safety: a frame's announced payload length is capped at
// MaxFrameBytes; decoders never allocate more than the received payload
// can actually describe, so a malformed count field cannot force a large
// allocation. Every decoder rejects truncated or trailing-garbage input
// with an error rather than a panic, and a decode error is grounds for
// the receiver to drop the connection (the stream may be desynchronized).
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
	"encoding/binary"
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

// WriteFrame encodes a message and writes one frame.
func WriteFrame(w io.Writer, msg any) error {
	var typ MsgType
	var payload []byte
	switch m := msg.(type) {
	case *QueryRequest:
		typ, payload = MsgQueryRequest, encodeQueryRequest(m)
	case *QueryResponse:
		typ, payload = MsgQueryResponse, encodeQueryResponse(m)
	case *StatsRequest:
		typ, payload = MsgStatsRequest, nil
	case *StatsResponse:
		typ = MsgStatsResponse
		payload = append(encodeU64(uint64(m.Images)), encodeU64(uint64(m.BytesReceived))...)
	case *ErrorResponse:
		typ, payload = MsgError, []byte(m.Message)
	case *TelemetryPush:
		typ, payload = MsgTelemetryPush, m.Snapshot
	case *TelemetryAck:
		typ, payload = MsgTelemetryAck, nil
	case *UploadBatchRequest:
		typ, payload = MsgUploadBatchRequest, encodeUploadBatchRequest(m)
	case *UploadBatchResponse:
		typ, payload = MsgUploadBatchResponse, encodeUploadBatchResponse(m)
	case *BusyResponse:
		typ, payload = MsgBusy, binary.LittleEndian.AppendUint32(nil, m.RetryAfterMs)
	case *Hello:
		typ, payload = MsgHello, encodeHello(m)
	case *BlockQuery:
		typ, payload = MsgBlockQuery, encodeBlockQuery(m)
	case *BlockQueryResponse:
		typ, payload = MsgBlockQueryResponse, encodeBlockQueryResponse(m)
	case *BlockPut:
		typ, payload = MsgBlockPut, encodeBlockPut(m)
	case *BlockPutResponse:
		typ, payload = MsgBlockPutResponse, encodeBlockPutResponse(m)
	case *ManifestCommit:
		typ, payload = MsgManifestCommit, encodeManifestCommit(m)
	case *ManifestCommitResponse:
		typ, payload = MsgManifestCommitResponse, encodeManifestCommitResponse(m)
	case *ShardRoute:
		typ, payload = MsgShardRoute, encodeShardRoute(m)
	case *ShardRouteResponse:
		typ, payload = MsgShardRouteResponse, encodeShardRouteResponse(m)
	case *ShardQuery:
		typ, payload = MsgShardQuery, encodeShardQuery(m)
	case *ShardQueryResponse:
		typ, payload = MsgShardQueryResponse, encodeShardQueryResponse(m)
	case *ShardSync:
		typ, payload = MsgShardSync, encodeShardSync(m)
	case *ShardSyncResponse:
		typ, payload = MsgShardSyncResponse, encodeShardSyncResponse(m)
	default:
		return fmt.Errorf("%w: %T", ErrUnencodable, msg)
	}
	header := make([]byte, 5)
	binary.LittleEndian.PutUint32(header, uint32(len(payload)))
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
	n := binary.LittleEndian.Uint32(header)
	if n > MaxFrameBytes {
		return 0, 0, ErrFrameTooLarge
	}
	return MsgType(header[4]), int(n), nil
}

// DecodePayload decodes one frame payload of the given type.
func DecodePayload(typ MsgType, payload []byte) (any, error) {
	switch typ {
	case MsgQueryRequest:
		return decodeQueryRequest(payload)
	case MsgQueryResponse:
		return decodeQueryResponse(payload)
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
		return decodeUploadBatchRequest(payload)
	case MsgUploadBatchResponse:
		return decodeUploadBatchResponse(payload)
	case MsgBusy:
		if len(payload) != 4 {
			return nil, errors.New("wire: bad busy response")
		}
		return &BusyResponse{RetryAfterMs: binary.LittleEndian.Uint32(payload)}, nil
	case MsgHello:
		return decodeHello(payload)
	case MsgBlockQuery:
		return decodeBlockQuery(payload)
	case MsgBlockQueryResponse:
		return decodeBlockQueryResponse(payload)
	case MsgBlockPut:
		return decodeBlockPut(payload)
	case MsgBlockPutResponse:
		return decodeBlockPutResponse(payload)
	case MsgManifestCommit:
		return decodeManifestCommit(payload)
	case MsgManifestCommitResponse:
		return decodeManifestCommitResponse(payload)
	case MsgShardRoute:
		return decodeShardRoute(payload)
	case MsgShardRouteResponse:
		return decodeShardRouteResponse(payload)
	case MsgShardQuery:
		return decodeShardQuery(payload)
	case MsgShardQueryResponse:
		return decodeShardQueryResponse(payload)
	case MsgShardSync:
		return decodeShardSync(payload)
	case MsgShardSyncResponse:
		return decodeShardSyncResponse(payload)
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", typ)
	}
}

func encodeU64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func encodeSet(buf []byte, set *features.BinarySet) []byte {
	n := set.Len()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for _, d := range set.Descriptors {
		for _, w := range d {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	return buf
}

func decodeSet(payload []byte) (*features.BinarySet, []byte, error) {
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

func encodeQueryRequest(m *QueryRequest) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(m.Sets)))
	for _, s := range m.Sets {
		buf = encodeSet(buf, s)
	}
	return buf
}

func decodeQueryRequest(payload []byte) (*QueryRequest, error) {
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
		set, rest, err := decodeSet(payload)
		if err != nil {
			return nil, err
		}
		req.Sets = append(req.Sets, set)
		payload = rest
	}
	return req, nil
}

func encodeQueryResponse(m *QueryResponse) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(m.MaxSims)))
	for _, s := range m.MaxSims {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s))
	}
	return buf
}

func decodeQueryResponse(payload []byte) (*QueryResponse, error) {
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

func encodeUploadBatchRequest(m *UploadBatchRequest) []byte {
	buf := encodeU64(m.Nonce)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Items)))
	for i := range m.Items {
		it := &m.Items[i]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(it.GroupID))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.Lat))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.Lon))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.Gain))
		set := it.Set
		if set == nil {
			set = &features.BinarySet{}
		}
		buf = encodeSet(buf, set)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(it.Blob)))
		buf = append(buf, it.Blob...)
	}
	return buf
}

// minUploadBatchItemBytes is the smallest encodable item: four u64
// fields, an empty descriptor set header, an empty blob header.
const minUploadBatchItemBytes = 8 + 8 + 8 + 8 + 4 + 4

func decodeUploadBatchRequest(payload []byte) (*UploadBatchRequest, error) {
	if len(payload) < 12 {
		return nil, errors.New("wire: truncated upload batch request")
	}
	req := &UploadBatchRequest{Nonce: binary.LittleEndian.Uint64(payload)}
	n := int(binary.LittleEndian.Uint32(payload[8:]))
	payload = payload[12:]
	// The count is attacker-controlled; cap the preallocation by what the
	// remaining payload could actually hold.
	prealloc := n
	if max := len(payload) / minUploadBatchItemBytes; prealloc > max {
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
		set, rest, err := decodeSet(payload[32:])
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

func encodeUploadBatchResponse(m *UploadBatchResponse) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(m.IDs)))
	for _, id := range m.IDs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

func decodeUploadBatchResponse(payload []byte) (*UploadBatchResponse, error) {
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
