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
