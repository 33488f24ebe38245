package server

// Cluster-facing server surface: a beesd node in a sharded cluster
// (internal/cluster) hosts one full Server per owned shard, so each
// shard replica gets the whole durability + dedup + accounting stack
// for free. This file adds the entry points a shard replica needs
// beyond the single-node API:
//
//   - ApplyShardCommit: the replica apply path — the same commit as
//     CommitManifestsNonce, but under router-assigned global IDs
//     instead of locally allocated ones.
//   - CandidatesAcross: the raw LSH candidate list (votes + exact
//     similarities, zero-sim entries included) over a node's shard
//     servers, which the router's global re-rank needs to reproduce
//     single-node query results.
//   - DedupEntries/SeedDedup: export and reseed of the nonce retry
//     window, so a replacement replica cloned via snapshot streaming
//     still answers late replays with the original IDs.

import (
	"fmt"

	"bees/internal/features"
	"bees/internal/index"
)

// ApplyShardCommit applies one shard's slice of a cluster upload batch
// exactly once per nonce, under the router-assigned IDs (one per
// upload; the router allocates from a global sequence, so a shard's
// IDs are not contiguous). Every named block must already be staged;
// on any validation failure nothing is committed. A retried nonce
// replays the originally recorded IDs without re-applying.
func (s *Server) ApplyShardCommit(nonce uint64, ids []int64, ups []ManifestUpload) ([]int64, error) {
	if len(ids) != len(ups) {
		return nil, fmt.Errorf("server: shard commit: %d ids for %d uploads", len(ids), len(ups))
	}
	items, manifests := splitUploads(ups)
	return s.countHit(s.commit(nonce, ids, items, manifests))
}

// CandidatesAcross exposes the raw LSH candidate ranking over the union
// of several shard servers' indexes — the top-limit candidates by
// (votes desc, ID asc) with their exact similarities, zero-sim
// collisions included (see index.CandidatesAcross). Votes depend only
// on the query, the stored entry, and the seeded bit selectors, so
// candidate lists from different nodes merge into exactly the ranking a
// single combined index would produce.
func CandidatesAcross(srvs []*Server, set *features.BinarySet, limit int) []index.Candidate {
	idxs := make([]*index.Index, len(srvs))
	for i, s := range srvs {
		idxs[i] = s.idx
	}
	return index.CandidatesAcross(idxs, set, limit)
}

// NextID returns the server's ID horizon: one past the largest image ID
// it has applied (0 when empty). The cluster router bootstraps its
// global ID sequence from the max across shards.
func (s *Server) NextID() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.nextID)
}

// DedupEntry is one nonce-window entry, exported for replica sync.
type DedupEntry struct {
	Nonce uint64
	IDs   []int64
}

// DedupEntries returns the nonce retry window in FIFO order, oldest
// first, so a replica clone can reseed an identical window.
func (s *Server) DedupEntries() []DedupEntry {
	return s.dedup.entries()
}

// SeedDedup installs one nonce-window entry, in the order called —
// used when rebuilding a replica from a ShardSync stream.
func (s *Server) SeedDedup(nonce uint64, ids []int64) {
	s.dedup.record(nonce, ids)
}
