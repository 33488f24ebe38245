package cluster_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"bees/internal/client"
	"bees/internal/cluster"
	"bees/internal/cluster/testcluster"
	"bees/internal/features"
	"bees/internal/index"
	"bees/internal/server"
	"bees/internal/telemetry"
	"bees/internal/wire"
)

// shardQueryRef is the per-shard-merge ShardQuery handler the cluster
// shipped with, kept as the oracle for the vote-first path: every
// requested shard is queried (and exactly re-ranked) up to the limit on
// its own, and the lists are merged by (votes desc, ID asc) and
// truncated. The global top-Limit restricted to a shard is always
// inside that shard's own top-Limit, so both must answer the same bytes.
func shardQueryRef(n *cluster.Node, m *wire.ShardQuery) *wire.ShardQueryResponse {
	srvs := make([]*server.Server, len(m.Shards))
	for i, s := range m.Shards {
		srvs[i] = n.ShardServer(s)
	}
	resp := &wire.ShardQueryResponse{Stats: make([]wire.ShardStat, len(m.Shards))}
	for i, srv := range srvs {
		st := srv.Stats()
		resp.Stats[i] = wire.ShardStat{
			Shard:  m.Shards[i],
			Images: int64(st.Images),
			Bytes:  st.BytesReceived,
			NextID: srv.NextID(),
		}
	}
	limit := int(m.Limit)
	resp.PerSet = make([][]wire.ShardCandidate, len(m.Sets))
	for si, set := range m.Sets {
		var cands []wire.ShardCandidate
		for _, srv := range srvs {
			for _, c := range server.CandidatesAcross([]*server.Server{srv}, set, limit) {
				cands = append(cands, wire.ShardCandidate{
					ID:    int64(c.ID),
					Votes: uint32(c.Votes),
					Sim:   c.Similarity,
				})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].Votes != cands[j].Votes {
				return cands[i].Votes > cands[j].Votes
			}
			return cands[i].ID < cands[j].ID
		})
		if len(cands) > limit {
			cands = cands[:limit]
		}
		resp.PerSet[si] = cands
	}
	return resp
}

// crowdItems builds n images that all share descriptors drawn from one
// small pool, so a query over the pool collides with most of them at
// varying vote counts — the candidate lists are long, full of vote ties,
// and spread over every shard, which is what makes limit truncation and
// the cross-shard merge order matter.
func crowdItems(rng *rand.Rand, n, descs int) (items []server.UploadItem, pool []features.Descriptor) {
	pool = make([]features.Descriptor, 2*descs)
	for i := range pool {
		for w := range pool[i] {
			pool[i][w] = rng.Uint64()
		}
	}
	items = make([]server.UploadItem, n)
	for i := range items {
		set := &features.BinarySet{Descriptors: make([]features.Descriptor, descs)}
		for j := range set.Descriptors {
			d := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				d[rng.Intn(4)] ^= 1 << uint(rng.Intn(64)) // near-duplicate descriptor
			}
			set.Descriptors[j] = d
		}
		items[i] = server.UploadItem{
			Set:  set,
			Meta: server.UploadMeta{GroupID: int64(i % 5), Lat: float64(i), Bytes: 300 + rng.Intn(500)},
		}
	}
	return items, pool
}

func encodeFrame(t testing.TB, msg any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shardQueryCluster boots a cluster holding the differential workload
// plus a crowd batch, and returns the query sets that exercise it:
// exact and near-duplicate re-queries, crowd queries with dozens of
// tied candidates, a set with no bucket hits and an empty set.
func shardQueryCluster(t testing.TB, cfg testcluster.Config) (*testcluster.Cluster, []*features.BinarySet) {
	t.Helper()
	tc, err := testcluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches, queries := clusterWorkload()
	rng := rand.New(rand.NewSource(99))
	crowd, pool := crowdItems(rng, 60, 6)
	batches = append(batches, crowd[:30], crowd[30:])
	for bi, batch := range batches {
		if _, err := tc.Router.UploadItems(uint64(bi+1), batch); err != nil {
			tc.Close()
			t.Fatal(err)
		}
	}
	sets := append([]*features.BinarySet(nil), queries[:6]...)
	sets = append(sets,
		&features.BinarySet{Descriptors: pool},
		&features.BinarySet{Descriptors: pool[:4]},
		crowd[7].Set,
		queries[len(queries)-1], // novel: no bucket hits
		&features.BinarySet{},   // empty
	)
	return tc, sets
}

// TestShardQueryMatchesPerShardMerge is the differential proof for the
// vote-first ShardQuery: on every node, for every replication factor,
// shard count and limit, the wire-encoded response is byte-identical to
// the per-shard-merge oracle's.
func TestShardQueryMatchesPerShardMerge(t *testing.T) {
	for _, replication := range []int{1, 2, 3} {
		for _, shards := range []int{1, 8, 64} {
			t.Run(fmt.Sprintf("replication=%d/shards=%d", replication, shards), func(t *testing.T) {
				cfg := clusterConfig(replication)
				cfg.Shards = shards
				tc, sets := shardQueryCluster(t, cfg)
				defer tc.Close()
				longest := 0
				for _, name := range cfg.Nodes {
					node := tc.Node(name)
					owned := node.Shards()
					if len(owned) == 0 {
						continue // R=1 with one shard leaves two nodes empty
					}
					var odd []uint32
					for i := len(owned) - 1; i >= 0; i -= 2 {
						odd = append(odd, owned[i]) // a subset, in descending order
					}
					queries := []*wire.ShardQuery{{Shards: owned}} // stats only
					for _, limit := range []uint32{1, 24, 10000} {
						queries = append(queries,
							&wire.ShardQuery{Shards: owned, Limit: limit, Sets: sets},
							&wire.ShardQuery{Shards: odd, Limit: limit, Sets: sets[6:8]})
					}
					for _, m := range queries {
						got, err := node.HandleShardQuery(m)
						if err != nil {
							t.Fatal(err)
						}
						want := shardQueryRef(node, m)
						if !bytes.Equal(encodeFrame(t, got), encodeFrame(t, want)) {
							t.Fatalf("node %s shards %v limit %d: response differs from the per-shard merge\n got %+v\nwant %+v",
								name, m.Shards, m.Limit, got, want)
						}
						for _, cands := range want.PerSet {
							if len(cands) > longest {
								longest = len(cands)
							}
						}
					}
				}
				if longest <= 24 {
					t.Fatalf("longest candidate list is %d; limit 24 never truncates and the merge order goes untested", longest)
				}
			})
		}
	}
}

// A ShardQuery naming a shard twice is refused: answering it would
// report the shard's stats twice and count every one of its candidates
// twice, pushing real candidates out of the top-Limit.
func TestShardQueryRejectsDuplicateShards(t *testing.T) {
	tc, sets := shardQueryCluster(t, clusterConfig(3)) // R=3: every node owns every shard
	defer tc.Close()
	opts := fastClient()
	opts.Dial = tc.DialFunc()
	opts.LazyDial = true
	c, err := client.DialOptions("n1", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.ShardQuery(&wire.ShardQuery{Shards: []uint32{3, 5, 3}, Limit: 24, Sets: sets})
	if err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("duplicate shard id answered with %v, want a refusal", err)
	}
	if _, err := c.ShardQuery(&wire.ShardQuery{Shards: []uint32{3, 5}, Limit: 24, Sets: sets}); err != nil {
		t.Fatalf("the same query without the duplicate: %v", err)
	}
}

// TestShardQueryWorkIsIndependentOfShardCount gates the property that
// makes query cost independent of -cluster-shards: a node computes at
// most Limit exact similarities per queried set, however many shards
// the frame names. (The per-shard merge computed up to Limit per set
// and shard.)
func TestShardQueryWorkIsIndependentOfShardCount(t *testing.T) {
	for _, shards := range []int{8, 64} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			cfg := clusterConfig(3) // every node owns every shard
			cfg.Shards = shards
			cfg.Server.Telemetry = reg
			tc, sets := shardQueryCluster(t, cfg)
			defer tc.Close()
			node := tc.Node("n2")
			setsCounter := reg.Counter("cluster.node.query.sets")
			reranks := reg.Counter("cluster.node.query.reranks")
			limit := index.DefaultConfig().CandidateLimit
			for _, frame := range [][]*features.BinarySet{sets, sets[6:7], nil} {
				sets0, reranks0 := setsCounter.Value(), reranks.Value()
				resp, err := node.HandleShardQuery(&wire.ShardQuery{Shards: node.Shards(), Limit: uint32(limit), Sets: frame})
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := resp.(*wire.ShardQueryResponse); !ok {
					t.Fatalf("node answered %T", resp)
				}
				if got := setsCounter.Value() - sets0; got != int64(len(frame)) {
					t.Fatalf("frame of %d sets counted %d", len(frame), got)
				}
				got := reranks.Value() - reranks0
				if max := int64(limit * len(frame)); got > max {
					t.Fatalf("%d exact re-ranks for %d sets at limit %d over %d shards (max %d)", got, len(frame), limit, shards, max)
				}
				if len(frame) > 0 && got == 0 {
					t.Fatal("no re-rank counted for a frame with candidates")
				}
			}
		})
	}
}
