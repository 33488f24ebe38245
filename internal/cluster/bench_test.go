package cluster_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"bees/internal/blockstore"
	"bees/internal/cluster"
	"bees/internal/cluster/testcluster"
	"bees/internal/features"
	"bees/internal/server"
	"bees/internal/wire"
)

// BenchmarkRouteKey measures the routing hot path: key → home shard →
// HRW replica set. This runs once per uploaded image on the router, so
// it must stay trivially cheap next to the descriptor work.
func BenchmarkRouteKey(b *testing.B) {
	for _, nodes := range []int{3, 16} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			names := make([]string, nodes)
			for i := range names {
				names[i] = fmt.Sprintf("node-%d", i)
			}
			tb, err := cluster.NewTable(names, 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shard := tb.ShardOf(uint64(i) * 0x9E3779B97F4A7C15)
				reps := tb.Replicas(shard, 2)
				if len(reps) != 2 {
					b.Fatal("short replica set")
				}
			}
		})
	}
}

// BenchmarkShardSync measures replica repair end to end in memory:
// snapshot a populated shard server, encode the sync frame, decode it,
// and rebuild a fresh replica from the stream. This bounds how long a
// shard is single-homed after a node replacement.
func BenchmarkShardSync(b *testing.B) {
	for _, images := range []int{64, 512} {
		b.Run(fmt.Sprintf("images=%d", images), func(b *testing.B) {
			src := server.NewWithConfig(server.Config{BlockSize: 4096})
			for i := 0; i < images; i++ {
				blob := blockstore.SynthPayload(uint64(i), 2000+(i%5)*800)
				m := blockstore.ManifestOf(blob, 4096)
				parts := blockstore.Split(blob, 4096)
				for j, h := range m.Hashes {
					if _, err := src.StageBlock(h, parts[j]); err != nil {
						b.Fatal(err)
					}
				}
				set := &features.BinarySet{Descriptors: []features.Descriptor{
					{uint64(i), uint64(i) * 3, uint64(i) * 7, uint64(i) * 31},
				}}
				if _, err := src.ApplyShardCommit(uint64(i+1), []int64{int64(i * 3)}, []server.ManifestUpload{{
					Set:      set,
					Meta:     server.UploadMeta{GroupID: int64(i), Bytes: len(blob)},
					Manifest: m,
				}}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := src.SaveSnapshot(&buf); err != nil {
					b.Fatal(err)
				}
				entries := src.DedupEntries()
				nonces := make([]wire.NonceEntry, len(entries))
				for j, e := range entries {
					nonces[j] = wire.NonceEntry{Nonce: e.Nonce, IDs: e.IDs}
				}
				frame := &wire.ShardSyncResponse{Snapshot: buf.Bytes(), Nonces: nonces}
				var wireBuf bytes.Buffer
				if err := wire.WriteFrame(&wireBuf, frame); err != nil {
					b.Fatal(err)
				}
				msg, err := wire.ReadFrame(&wireBuf)
				if err != nil {
					b.Fatal(err)
				}
				resp := msg.(*wire.ShardSyncResponse)
				fresh := server.NewWithConfig(server.Config{BlockSize: 4096})
				if err := fresh.LoadSnapshot(bytes.NewReader(resp.Snapshot)); err != nil {
					b.Fatal(err)
				}
				for _, e := range resp.Nonces {
					fresh.SeedDedup(e.Nonce, e.IDs)
				}
				if st := fresh.Stats(); st.Images != images {
					b.Fatalf("rebuilt replica holds %d images, want %d", st.Images, images)
				}
			}
		})
	}
}

// benchCluster boots a pipe-network cluster holding 256 crowd images of
// 64 descriptors each, and returns query frames of 4 sets whose
// candidate lists overflow the limit on every shard layout — the load
// the cluster3 workload puts on the same code, without the TCP stack.
func benchCluster(b *testing.B, nodes []string, shards, replication int) (*testcluster.Cluster, []server.UploadItem, [][]*features.BinarySet) {
	b.Helper()
	cfg := clusterConfig(replication)
	cfg.Nodes, cfg.Shards = nodes, shards
	tc, err := testcluster.Start(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(tc.Close)
	rng := rand.New(rand.NewSource(7))
	items, _ := crowdItems(rng, 256, 64)
	for at := 0; at < len(items); at += 32 {
		if _, err := tc.Router.UploadItems(tc.Router.NewNonce(), items[at:at+32]); err != nil {
			b.Fatal(err)
		}
	}
	frames := make([][]*features.BinarySet, 8)
	for f := range frames {
		for i := 0; i < 4; i++ {
			frames[f] = append(frames[f], items[(f*4+i)*7%len(items)].Set)
		}
	}
	return tc, items, frames
}

// BenchmarkShardQuery measures one node answering a 4-set ShardQuery
// over every shard it owns. Vote-first, 64 shards do the same ≤ Limit
// exact re-ranks per set as 8; what still grows with the shard count is
// the LSH probing, one set of hash tables per shard.
func BenchmarkShardQuery(b *testing.B) {
	for _, shards := range []int{8, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			tc, _, frames := benchCluster(b, []string{"n1"}, shards, 1)
			node := tc.Node("n1")
			owned := node.Shards()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := node.HandleShardQuery(&wire.ShardQuery{Shards: owned, Limit: 24, Sets: frames[i%len(frames)]})
				if err != nil {
					b.Fatal(err)
				}
				if r, ok := resp.(*wire.ShardQueryResponse); !ok || len(r.PerSet[0]) != 24 {
					b.Fatalf("unexpected answer %+v", resp)
				}
			}
		})
	}
}

// BenchmarkRouterQueryFanOut measures a 4-set QueryMaxBatch through the
// router of a 3-node, 8-shard, R=2 cluster: one concurrent ShardQuery
// wave plus the candidate merge.
func BenchmarkRouterQueryFanOut(b *testing.B) {
	tc, _, frames := benchCluster(b, []string{"n1", "n2", "n3"}, 8, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.Router.QueryMaxBatch(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterUploadFanOut measures an 8-image UploadItems through
// the same cluster: split by shard, then the two-round delta flow to
// both replicas of every touched shard, nodes served concurrently.
func BenchmarkRouterUploadFanOut(b *testing.B) {
	tc, items, _ := benchCluster(b, []string{"n1", "n2", "n3"}, 8, 2)
	batch := make([]server.UploadItem, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = items[(i*8+j)%len(items)]
			batch[j].Meta.Lon = float64(i + 1) // fresh content: every block is new to the shard
		}
		if _, err := tc.Router.UploadItems(tc.Router.NewNonce(), batch); err != nil {
			b.Fatal(err)
		}
	}
}
