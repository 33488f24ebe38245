package wire

// Cluster protocol: a rendezvous-hashed cluster of beesd nodes splits
// the descriptor index into logical shards, each replicated on R nodes
// (see internal/cluster). Three request frames carry all cluster
// traffic —
//
//	ShardRoute   stage blocks + commit a shard's slice of an upload
//	             batch under router-assigned image IDs → ShardRouteResponse
//	ShardQuery   run the CBRD candidate query against a set of shards
//	             on one node → ShardQueryResponse (candidates + stats)
//	ShardSync    pull one shard's full replica state (snapshot stream +
//	             nonce-dedup window) → ShardSyncResponse
//
// ShardRoute folds the three-phase delta upload into one frame type:
// Query asks which of the listed block hashes the shard already holds
// (answered in Have), Blocks stages missing blocks, and Items commits
// manifests under the explicit IDs — non-contiguous within a shard,
// because the router assigns globally dense IDs and splits a batch
// across shards. A frame is atomic on the wire, and the commit joins
// the shard server's nonce-dedup window, so a replayed frame (write-all
// fan-out retrying a replica) re-acks the original IDs instead of
// applying twice.
//
// ShardQuery returns, per queried set, the top-Limit LSH candidates
// with their vote counts and exact similarities (including sim 0).
// Votes depend only on the query, the entry, and the seeded bit
// selectors — never on what else a shard holds — so the router's global
// re-rank of the per-node candidate lists reproduces the single-node
// candidate order bit-for-bit regardless of which replica answered or
// how shards were grouped per node. The response also carries per-shard
// stats so the router can aggregate Stats and bootstrap its ID sequence
// without an extra frame type.
//
// ShardSync streams the shard server's deterministic snapshot bytes
// (internal/server persist format, hash-sorted blocks) plus the shard's
// nonce-dedup window, so a replacement replica rebuilds byte-identical
// state — refcounts included — and still dedups late replays of nonces
// the failed node had already applied.

import (
	"bees/internal/blockstore"
	"bees/internal/features"
)

// ShardRouteForwarded is a ShardRoute flag bit that nodes no longer act
// on: a node refuses a frame for a shard it does not own whatever the
// flags say, and relays nothing. The Flags field stays in the frame so
// its bytes do not change.
const ShardRouteForwarded uint32 = 1 << 0

// ShardRoute is one shard's slice of an upload batch, plus the block
// staging that precedes it. Any of Query, Blocks, and Items may be
// empty; a Query-only frame is the read phase of the delta flow. IDs
// are the router-assigned global image IDs for Items, in item order
// (len(IDs) == len(Items) always).
type ShardRoute struct {
	Nonce  uint64
	Shard  uint32
	Flags  uint32
	IDs    []int64
	Query  []blockstore.Hash
	Blocks []Block
	Items  []ManifestItem
}

// MaxGain returns the highest item gain in the frame (see
// ManifestCommit.MaxGain).
func (m *ShardRoute) MaxGain() float64 { return maxGain(m.Items) }

// ShardRouteResponse acknowledges a ShardRoute: Have answers Query hash
// for hash, IDs acknowledges the committed Items (the frame's own IDs,
// or the originally recorded ones on a nonce replay).
type ShardRouteResponse struct {
	Have []bool
	IDs  []int64
}

// ShardQuery runs the CBRD candidate query for each set against the
// union of the named shards on the receiving node. Sets may be empty —
// a stats-only probe still returns per-shard counters.
type ShardQuery struct {
	Shards []uint32
	Limit  uint32
	Sets   []*features.BinarySet
}

// ShardCandidate is one LSH candidate in a ShardQueryResponse: the
// image's global ID, its LSH vote count, and its exact Equation-2
// similarity (kept even when 0 so the router's global re-rank sees the
// same candidate list a single node would).
type ShardCandidate struct {
	ID    int64
	Votes uint32
	Sim   float64
}

// ShardStat carries one shard's upload counters and ID horizon.
type ShardStat struct {
	Shard  uint32
	Images int64
	Bytes  int64
	NextID int64
}

// ShardQueryResponse answers a ShardQuery: per-shard stats for every
// queried shard (in request order), and per set the top-Limit
// candidates across those shards merged by (votes desc, ID asc).
type ShardQueryResponse struct {
	Stats  []ShardStat
	PerSet [][]ShardCandidate
}

// ShardSync asks for a shard's full replica state.
type ShardSync struct {
	Shard uint32
}

// NonceEntry is one nonce-dedup window entry riding a ShardSyncResponse,
// in window (FIFO) order.
type NonceEntry struct {
	Nonce uint64
	IDs   []int64
}

// ShardSyncResponse carries a shard's snapshot stream (the server's
// deterministic persist format: index entries, upload history, and the
// refcounted block store) plus its nonce-dedup window.
type ShardSyncResponse struct {
	Snapshot []byte
	Nonces   []NonceEntry
}
