// Package cluster distributes the BEES descriptor index across beesd
// nodes: a static-membership node table, rendezvous (HRW) hashing from
// index shards to N-way replica sets, a router that fans uploads out
// write-all and reads queries from whichever replica answers, and
// snapshot streaming so a replacement node rebuilds a shard from a live
// replica. See DESIGN.md, "Cluster routing & replication".
package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
)

// Table is the static cluster membership: the node set (addresses) and
// the logical shard count. Shard placement is pure computation over the
// table — rendezvous hashing needs no directory, no coordination, and
// gives every router and node the identical answer.
type Table struct {
	nodes  []string
	shards int
}

// NewTable builds a membership table. Nodes must be non-empty and
// unique; shards must be positive. The node list is kept in the given
// order (scores, not positions, decide placement).
func NewTable(nodes []string, shards int) (*Table, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty node table")
	}
	if shards <= 0 {
		return nil, fmt.Errorf("cluster: shard count %d", shards)
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
		seen[n] = true
	}
	return &Table{nodes: append([]string(nil), nodes...), shards: shards}, nil
}

// NumShards returns the logical shard count.
func (t *Table) NumShards() int { return t.shards }

// ShardOf maps an item key (client.ItemKey: the stable hash of an
// image's descriptors + metadata) to its home shard.
func (t *Table) ShardOf(key uint64) uint32 {
	return uint32(key % uint64(t.shards))
}

// score is the rendezvous weight of (node, shard): FNV-64a over the
// shard id then the node name. Each node's score stream is independent,
// which is exactly what gives HRW its minimal-disruption property —
// removing a node only relocates the shards it was winning.
func score(node string, shard uint32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], shard)
	h.Write(b[:])
	h.Write([]byte(node))
	return h.Sum64()
}

// Replicas returns the shard's replica set: the r highest-scoring nodes
// for that shard, best first (ties broken by name so the order is a
// total one). r is clamped to the cluster size. The first entry is the
// shard's primary.
func (t *Table) Replicas(shard uint32, r int) []string {
	if r <= 0 {
		r = 1
	}
	if r > len(t.nodes) {
		r = len(t.nodes)
	}
	type scored struct {
		node  string
		score uint64
	}
	all := make([]scored, len(t.nodes))
	for i, n := range t.nodes {
		all[i] = scored{node: n, score: score(n, shard)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].node < all[j].node
	})
	out := make([]string, r)
	for i := range out {
		out[i] = all[i].node
	}
	return out
}

// NodeShards returns the shards a node replicates (appears anywhere in
// the replica set of) at replication factor r, in ascending shard
// order.
func (t *Table) NodeShards(node string, r int) []uint32 {
	var out []uint32
	for s := 0; s < t.shards; s++ {
		for _, n := range t.Replicas(uint32(s), r) {
			if n == node {
				out = append(out, uint32(s))
				break
			}
		}
	}
	return out
}
