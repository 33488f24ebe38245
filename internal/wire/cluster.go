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
	"encoding/binary"
	"errors"
	"math"

	"bees/internal/blockstore"
	"bees/internal/features"
)

// ShardRouteForwarded marks a frame already forwarded once by a
// non-owner node; a receiver that still does not own the shard answers
// with an error instead of forwarding again (no proxy loops).
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

func encodeShardRoute(m *ShardRoute) []byte {
	buf := encodeU64(m.Nonce)
	buf = binary.LittleEndian.AppendUint32(buf, m.Shard)
	buf = binary.LittleEndian.AppendUint32(buf, m.Flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.IDs)))
	for _, id := range m.IDs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Query)))
	for i := range m.Query {
		buf = append(buf, m.Query[i][:]...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Blocks)))
	for i := range m.Blocks {
		b := &m.Blocks[i]
		buf = append(buf, b.Hash[:]...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Data)))
		buf = append(buf, b.Data...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Items)))
	for i := range m.Items {
		buf = appendManifestItem(buf, &m.Items[i])
	}
	return buf
}

func decodeShardRoute(payload []byte) (*ShardRoute, error) {
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
	if max := len(payload) / minBlockPutBytes; prealloc > max {
		prealloc = max
	}
	if prealloc > 0 {
		m.Blocks = make([]Block, 0, prealloc)
	}
	for i := 0; i < nBlocks; i++ {
		if len(payload) < minBlockPutBytes {
			return nil, errors.New("wire: truncated shard route block")
		}
		var b Block
		copy(b.Hash[:], payload)
		dataLen := int(binary.LittleEndian.Uint32(payload[hashLen:]))
		payload = payload[minBlockPutBytes:]
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
	if max := len(payload) / minManifestItemBytes; prealloc > max {
		prealloc = max
	}
	if prealloc > 0 {
		m.Items = make([]ManifestItem, 0, prealloc)
	}
	for i := 0; i < nItems; i++ {
		it, rest, err := decodeManifestItem(payload)
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

func encodeShardRouteResponse(m *ShardRouteResponse) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(m.Have)))
	bitmap := make([]byte, (len(m.Have)+7)/8)
	for i, ok := range m.Have {
		if ok {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	buf = append(buf, bitmap...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.IDs)))
	for _, id := range m.IDs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

func decodeShardRouteResponse(payload []byte) (*ShardRouteResponse, error) {
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

func encodeShardQuery(m *ShardQuery) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(m.Shards)))
	for _, s := range m.Shards {
		buf = binary.LittleEndian.AppendUint32(buf, s)
	}
	buf = binary.LittleEndian.AppendUint32(buf, m.Limit)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Sets)))
	for _, s := range m.Sets {
		set := s
		if set == nil {
			set = &features.BinarySet{}
		}
		buf = encodeSet(buf, set)
	}
	return buf
}

func decodeShardQuery(payload []byte) (*ShardQuery, error) {
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
		set, rest, err := decodeSet(payload)
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

func encodeShardQueryResponse(m *ShardQueryResponse) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(m.Stats)))
	for i := range m.Stats {
		st := &m.Stats[i]
		buf = binary.LittleEndian.AppendUint32(buf, st.Shard)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Images))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Bytes))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(st.NextID))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.PerSet)))
	for _, cands := range m.PerSet {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cands)))
		for i := range cands {
			c := &cands[i]
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.ID))
			buf = binary.LittleEndian.AppendUint32(buf, c.Votes)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Sim))
		}
	}
	return buf
}

// shardStatBytes and shardCandidateBytes are the fixed encodings used to
// bound decode-time preallocation.
const (
	shardStatBytes      = 4 + 8 + 8 + 8
	shardCandidateBytes = 8 + 4 + 8
)

func decodeShardQueryResponse(payload []byte) (*ShardQueryResponse, error) {
	if len(payload) < 4 {
		return nil, errors.New("wire: truncated shard query response")
	}
	nStats := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) < nStats*shardStatBytes {
		return nil, errors.New("wire: truncated shard stats")
	}
	m := &ShardQueryResponse{}
	if nStats > 0 {
		m.Stats = make([]ShardStat, nStats)
		for i := range m.Stats {
			p := payload[i*shardStatBytes:]
			m.Stats[i] = ShardStat{
				Shard:  binary.LittleEndian.Uint32(p),
				Images: int64(binary.LittleEndian.Uint64(p[4:])),
				Bytes:  int64(binary.LittleEndian.Uint64(p[12:])),
				NextID: int64(binary.LittleEndian.Uint64(p[20:])),
			}
		}
	}
	payload = payload[nStats*shardStatBytes:]
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
		if len(payload) < nCands*shardCandidateBytes {
			return nil, errors.New("wire: truncated shard candidates")
		}
		var cands []ShardCandidate
		if nCands > 0 {
			cands = make([]ShardCandidate, nCands)
			for j := range cands {
				p := payload[j*shardCandidateBytes:]
				cands[j] = ShardCandidate{
					ID:    int64(binary.LittleEndian.Uint64(p)),
					Votes: binary.LittleEndian.Uint32(p[8:]),
					Sim:   math.Float64frombits(binary.LittleEndian.Uint64(p[12:])),
				}
			}
		}
		payload = payload[nCands*shardCandidateBytes:]
		m.PerSet = append(m.PerSet, cands)
	}
	if len(payload) != 0 {
		return nil, errors.New("wire: trailing bytes after shard query response")
	}
	return m, nil
}

func encodeShardSync(m *ShardSync) []byte {
	return binary.LittleEndian.AppendUint32(nil, m.Shard)
}

func decodeShardSync(payload []byte) (*ShardSync, error) {
	if len(payload) != 4 {
		return nil, errors.New("wire: bad shard sync")
	}
	return &ShardSync{Shard: binary.LittleEndian.Uint32(payload)}, nil
}

func encodeShardSyncResponse(m *ShardSyncResponse) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(m.Snapshot)))
	buf = append(buf, m.Snapshot...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Nonces)))
	for i := range m.Nonces {
		e := &m.Nonces[i]
		buf = binary.LittleEndian.AppendUint64(buf, e.Nonce)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.IDs)))
		for _, id := range e.IDs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
		}
	}
	return buf
}

// minNonceEntryBytes is the smallest encodable window entry: nonce plus
// an empty ID count.
const minNonceEntryBytes = 8 + 4

func decodeShardSyncResponse(payload []byte) (*ShardSyncResponse, error) {
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
	if max := len(payload) / minNonceEntryBytes; prealloc > max {
		prealloc = max
	}
	if prealloc > 0 {
		m.Nonces = make([]NonceEntry, 0, prealloc)
	}
	for i := 0; i < nNonces; i++ {
		if len(payload) < minNonceEntryBytes {
			return nil, errors.New("wire: truncated nonce entry")
		}
		e := NonceEntry{Nonce: binary.LittleEndian.Uint64(payload)}
		nIDs := int(binary.LittleEndian.Uint32(payload[8:]))
		payload = payload[minNonceEntryBytes:]
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

// appendManifestItem encodes one manifest item (the ManifestCommit item
// layout, shared by ShardRoute).
func appendManifestItem(buf []byte, it *ManifestItem) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(it.GroupID))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.Lat))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.Lon))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.Gain))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(it.TotalBytes))
	buf = binary.LittleEndian.AppendUint32(buf, it.BlockSize)
	set := it.Set
	if set == nil {
		set = &features.BinarySet{}
	}
	buf = encodeSet(buf, set)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(it.Hashes)))
	for j := range it.Hashes {
		buf = append(buf, it.Hashes[j][:]...)
	}
	return buf
}

// decodeManifestItem decodes one manifest item, returning the rest of
// the payload.
func decodeManifestItem(payload []byte) (ManifestItem, []byte, error) {
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
	set, rest, err := decodeSet(payload[44:])
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
