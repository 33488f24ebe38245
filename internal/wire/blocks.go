package wire

// Block-transfer protocol: the one upload path splits each image
// payload into content-addressed blocks (internal/blockstore) and sends
// it as three frames —
//
//	BlockQuery      which of these hashes do you hold?   → BlockQueryResponse (bitmap)
//	BlockPut        here are the blocks you were missing → BlockPutResponse
//	ManifestCommit  store these images by manifest       → ManifestCommitResponse (IDs)
//
// Only ManifestCommit mutates server accounting, and it carries the
// retry nonce (the server's one dedup window), so the commit
// is exactly-once while queries and puts are freely retryable: a put of
// a block the server already holds is a no-op dedup hit. That makes a
// mid-image transfer resumable block-by-block — after a partition the
// client re-queries and only the unacked tail of blocks crosses the
// link again.
//
// Capability negotiation: a client may open with Hello carrying its
// protocol version and feature bits; the server answers with its own,
// always including FeatureBlocks. Feature bits the receiver does not know
// are ignored, never fatal, so either side can grow new bits without
// breaking the other.

import (
	"bees/internal/blockstore"
	"bees/internal/features"
	"encoding/binary"
	"errors"
)

// ProtocolVersion is the wire protocol revision announced in Hello.
const ProtocolVersion = 1

// Feature bits carried in Hello.Features. Unknown bits are ignored.
const (
	// FeatureBlocks: the sender speaks the content-addressed block
	// transfer frames (BlockQuery/BlockPut/ManifestCommit).
	FeatureBlocks uint64 = 1 << 0
	// FeatureCluster: the sender speaks the sharded-cluster frames
	// (ShardRoute/ShardQuery/ShardSync). Advertised by beesd nodes
	// started with a cluster node table.
	FeatureCluster uint64 = 1 << 1
)

// Hello is the capability handshake: the client sends its version and
// feature bits, the server answers with its own Hello. It is valid at any point of the request/response
// alternation and has no side effects.
type Hello struct {
	Version  uint32
	Features uint64
}

// BlockQuery asks which of the listed blocks the server already holds.
type BlockQuery struct {
	Hashes []blockstore.Hash
}

// BlockQueryResponse answers a BlockQuery: Have[i] reports whether the
// server holds Hashes[i]. Encoded as a bitmap, so asking about a whole
// image costs ~n/8 response bytes.
type BlockQueryResponse struct {
	Have []bool
}

// Block is one content-addressed block in a BlockPut.
type Block struct {
	Hash blockstore.Hash
	Data []byte
}

// BlockPut uploads blocks the server reported missing. Idempotent: a
// block the server already holds is acknowledged as a duplicate without
// being stored again, so a retried put can never corrupt or double-store.
type BlockPut struct {
	Blocks []Block
}

// BlockPutResponse acknowledges a BlockPut.
type BlockPutResponse struct {
	// Stored counts blocks newly stored; Dup counts blocks the server
	// already held (the retry/dedup case).
	Stored uint32
	Dup    uint32
}

// ManifestItem is one image of a ManifestCommit: its upload metadata
// and, in place of the payload, the payload's block manifest.
type ManifestItem struct {
	Set     *features.BinarySet
	GroupID int64
	Lat     float64
	Lon     float64
	// Gain is the item's submodular marginal gain from SSMM selection
	// (0 = unranked). A utility-aware server ranks the whole frame by its
	// highest item gain and sheds lowest-gain frames first under overload;
	// an unranked frame falls back to the FIFO shedding rule.
	Gain float64
	// TotalBytes and BlockSize describe the payload the Hashes reassemble
	// to; TotalBytes is what server accounting charges as received.
	TotalBytes int64
	BlockSize  uint32
	Hashes     []blockstore.Hash
}

// Manifest returns the item's payload manifest in blockstore form.
func (it *ManifestItem) Manifest() blockstore.Manifest {
	return blockstore.Manifest{
		TotalBytes: it.TotalBytes,
		BlockSize:  int(it.BlockSize),
		Hashes:     it.Hashes,
	}
}

// ManifestCommit stores a window of images whose blocks have already
// been transferred. It is atomic under one nonce: a replayed commit is answered with the originally assigned IDs
// instead of being applied twice. A commit naming a block the server
// does not hold fails as a whole (no partial application) — the client
// re-queries and re-puts before retrying.
type ManifestCommit struct {
	Nonce uint64
	Items []ManifestItem
}

// MaxGain returns the highest item gain in the commit — the frame-level
// utility a gain-aware admission policy ranks by (0 when every item is
// unranked).
func (m *ManifestCommit) MaxGain() float64 { return maxGain(m.Items) }

func maxGain(items []ManifestItem) float64 {
	best := 0.0
	for i := range items {
		if g := items[i].Gain; g > best {
			best = g
		}
	}
	return best
}

// ManifestCommitResponse acknowledges a ManifestCommit with one
// assigned image ID per item, in order.
type ManifestCommitResponse struct {
	IDs []int64
}

func encodeHello(m *Hello) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, m.Version)
	return binary.LittleEndian.AppendUint64(buf, m.Features)
}

func decodeHello(payload []byte) (*Hello, error) {
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

const hashLen = 32

func encodeBlockQuery(m *BlockQuery) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(m.Hashes)))
	for i := range m.Hashes {
		buf = append(buf, m.Hashes[i][:]...)
	}
	return buf
}

func decodeBlockQuery(payload []byte) (*BlockQuery, error) {
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

func encodeBlockQueryResponse(m *BlockQueryResponse) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(m.Have)))
	bitmap := make([]byte, (len(m.Have)+7)/8)
	for i, ok := range m.Have {
		if ok {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	return append(buf, bitmap...)
}

func decodeBlockQueryResponse(payload []byte) (*BlockQueryResponse, error) {
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

func encodeBlockPut(m *BlockPut) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(m.Blocks)))
	for i := range m.Blocks {
		b := &m.Blocks[i]
		buf = append(buf, b.Hash[:]...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Data)))
		buf = append(buf, b.Data...)
	}
	return buf
}

// minBlockPutBytes is the smallest encodable block: hash + length header.
const minBlockPutBytes = hashLen + 4

func decodeBlockPut(payload []byte) (*BlockPut, error) {
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated block put")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	// The count is attacker-controlled; cap the preallocation by what the
	// remaining payload could actually hold.
	prealloc := n
	if max := len(payload) / minBlockPutBytes; prealloc > max {
		prealloc = max
	}
	req := &BlockPut{Blocks: make([]Block, 0, prealloc)}
	for i := 0; i < n; i++ {
		if len(payload) < minBlockPutBytes {
			return nil, errors.New("wire: truncated block")
		}
		var b Block
		copy(b.Hash[:], payload)
		dataLen := int(binary.LittleEndian.Uint32(payload[hashLen:]))
		payload = payload[minBlockPutBytes:]
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

func encodeBlockPutResponse(m *BlockPutResponse) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, m.Stored)
	return binary.LittleEndian.AppendUint32(buf, m.Dup)
}

func decodeBlockPutResponse(payload []byte) (*BlockPutResponse, error) {
	if len(payload) != 8 {
		return nil, errors.New("wire: bad block put response")
	}
	return &BlockPutResponse{
		Stored: binary.LittleEndian.Uint32(payload),
		Dup:    binary.LittleEndian.Uint32(payload[4:]),
	}, nil
}

func encodeManifestCommit(m *ManifestCommit) []byte {
	buf := encodeU64(m.Nonce)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Items)))
	for i := range m.Items {
		buf = appendManifestItem(buf, &m.Items[i])
	}
	return buf
}

// minManifestItemBytes is the smallest encodable item: five u64 fields,
// a u32 block size, an empty descriptor-set header, an empty hash count.
const minManifestItemBytes = 8*5 + 4 + 4 + 4

func decodeManifestCommit(payload []byte) (*ManifestCommit, error) {
	if len(payload) < 12 {
		return nil, errors.New("wire: truncated manifest commit")
	}
	req := &ManifestCommit{Nonce: binary.LittleEndian.Uint64(payload)}
	n := int(binary.LittleEndian.Uint32(payload[8:]))
	payload = payload[12:]
	prealloc := n
	if max := len(payload) / minManifestItemBytes; prealloc > max {
		prealloc = max
	}
	req.Items = make([]ManifestItem, 0, prealloc)
	for i := 0; i < n; i++ {
		it, rest, err := decodeManifestItem(payload)
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

func encodeManifestCommitResponse(m *ManifestCommitResponse) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(m.IDs)))
	for _, id := range m.IDs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

func decodeManifestCommitResponse(payload []byte) (*ManifestCommitResponse, error) {
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
