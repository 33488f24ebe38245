package cluster

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Nodes returns the member list in table order.
func (t *Table) Nodes() []string { return append([]string(nil), t.nodes...) }

// tableNodes builds n distinct node names.
func tableNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node-%d", i)
	}
	return out
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(nil, 4); err == nil {
		t.Fatal("empty node list accepted")
	}
	if _, err := NewTable([]string{"a"}, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := NewTable([]string{"a", "a"}, 4); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := NewTable([]string{"a", ""}, 4); err == nil {
		t.Fatal("empty node name accepted")
	}
	tb, err := NewTable([]string{"b", "a"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Nodes(); len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("Nodes() = %v, want table order [b a]", got)
	}
	if tb.NumShards() != 4 {
		t.Fatalf("NumShards() = %d", tb.NumShards())
	}
}

// Property: a replica set never contains duplicates and always has
// exactly min(r, len(nodes)) members, all of which are table members.
func TestReplicasWellFormed(t *testing.T) {
	f := func(nNodes uint8, nShards uint8, shard uint32, r uint8) bool {
		n := int(nNodes%8) + 1
		shards := int(nShards%32) + 1
		tb, err := NewTable(tableNodes(n), shards)
		if err != nil {
			return false
		}
		want := int(r)
		if want <= 0 {
			want = 1
		}
		if want > n {
			want = n
		}
		reps := tb.Replicas(shard%uint32(shards), int(r))
		if len(reps) != want {
			return false
		}
		seen := make(map[string]bool)
		member := make(map[string]bool)
		for _, node := range tb.Nodes() {
			member[node] = true
		}
		for _, rep := range reps {
			if seen[rep] || !member[rep] {
				return false
			}
			seen[rep] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property (HRW minimal disruption): removing one node from the table
// relocates only the shards that node was replicating. A shard whose
// replica set did not contain the removed node keeps the exact same
// replica set, in the same order; one that did keeps every surviving
// replica in order and gains exactly one newcomer at the end of the
// preference order's tail.
func TestRemoveNodeRelocatesOnlyItsShards(t *testing.T) {
	f := func(nNodes uint8, nShards uint8, r uint8, removeIdx uint8) bool {
		n := int(nNodes%7) + 2 // at least 2 so one can go
		shards := int(nShards%32) + 1
		rep := int(r%uint8(n)) + 1
		nodes := tableNodes(n)
		removed := nodes[int(removeIdx)%n]
		var rest []string
		for _, node := range nodes {
			if node != removed {
				rest = append(rest, node)
			}
		}
		before, err := NewTable(nodes, shards)
		if err != nil {
			return false
		}
		after, err := NewTable(rest, shards)
		if err != nil {
			return false
		}
		for s := 0; s < shards; s++ {
			b := before.Replicas(uint32(s), rep)
			a := after.Replicas(uint32(s), rep)
			// Surviving replicas must appear in a in the same relative
			// order, as a prefix-merge: a is b minus the removed node,
			// plus at most one promoted node at the tail positions.
			var survivors []string
			hadRemoved := false
			for _, node := range b {
				if node == removed {
					hadRemoved = true
					continue
				}
				survivors = append(survivors, node)
			}
			if !hadRemoved {
				// Untouched shard: identical set, identical order.
				if len(a) != len(b) {
					return false
				}
				for i := range a {
					if a[i] != b[i] {
						return false
					}
				}
				continue
			}
			// Touched shard: the survivors stay, in order, possibly
			// interleaved with exactly the promoted newcomers.
			si := 0
			newcomers := 0
			for _, node := range a {
				if si < len(survivors) && node == survivors[si] {
					si++
					continue
				}
				newcomers++
			}
			if si != len(survivors) {
				return false // a survivor lost its slot or its order
			}
			if newcomers != len(a)-len(survivors) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Every shard at replication r is owned by exactly r nodes, and
// NodeShards agrees with Replicas in both directions.
func TestNodeShardsConsistent(t *testing.T) {
	tb, err := NewTable(tableNodes(5), 16)
	if err != nil {
		t.Fatal(err)
	}
	const r = 3
	owners := make(map[uint32]int)
	for _, node := range tb.Nodes() {
		for _, s := range tb.NodeShards(node, r) {
			owners[s]++
			found := false
			for _, rep := range tb.Replicas(s, r) {
				if rep == node {
					found = true
				}
			}
			if !found {
				t.Fatalf("NodeShards says %s owns shard %d, Replicas disagrees", node, s)
			}
		}
	}
	for s := 0; s < 16; s++ {
		if owners[uint32(s)] != r {
			t.Fatalf("shard %d has %d owners, want %d", s, owners[uint32(s)], r)
		}
	}
}

// ShardOf is stable and within range.
func TestShardOf(t *testing.T) {
	tb, err := NewTable(tableNodes(3), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []uint64{0, 1, 7, 8, 1 << 40, ^uint64(0)} {
		s := tb.ShardOf(key)
		if s >= 8 {
			t.Fatalf("ShardOf(%d) = %d out of range", key, s)
		}
		if s != tb.ShardOf(key) {
			t.Fatalf("ShardOf(%d) unstable", key)
		}
	}
}
