package index

import (
	"fmt"
	"sync/atomic"
	"testing"

	"bees/internal/features"
)

func BenchmarkQueryMaxLSH(b *testing.B) {
	c := newCorpus(b, 60, 900)
	idx := buildIndex(c)
	q := c.variantSet(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.QueryMax(q)
	}
}

func BenchmarkQueryMaxExhaustive(b *testing.B) {
	c := newCorpus(b, 60, 901)
	idx := buildIndex(c)
	q := c.variantSet(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.ExhaustiveMax(q)
	}
}

// BenchmarkQueryMaxExhaustiveRef is the brute-force matcher baseline for
// the exhaustive scan (same corpus and query as the prepared benchmark
// above), kept so `make benchdiff` tracks the kernel speedup at the
// index layer.
func BenchmarkQueryMaxExhaustiveRef(b *testing.B) {
	c := newCorpus(b, 60, 901)
	idx := buildIndex(c)
	q := c.variantSet(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var best *Entry
		bestSim := 0.0
		for _, id := range idx.sortedIDs() {
			e := idx.Get(id)
			if sim := features.JaccardBinaryRef(q, e.Set, idx.cfg.HammingMax); sim > bestSim {
				bestSim, best = sim, e
			}
		}
		_ = best
	}
}

func BenchmarkAdd(b *testing.B) {
	c := newCorpus(b, 8, 902)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := New(DefaultConfig())
		for j, s := range c.sets {
			idx.Add(&Entry{ID: ImageID(j), Set: s})
		}
	}
}

// benchShardedIndex builds an index with the given stripe count holding
// 64 entries (the corpus sets reused under distinct IDs, as shard load).
func benchShardedIndex(c *testCorpus, shards int) *Index {
	cfg := DefaultConfig()
	cfg.Shards = shards
	idx := New(cfg)
	for i := 0; i < 64; i++ {
		idx.Add(&Entry{ID: ImageID(i), Set: c.sets[i%len(c.sets)], GroupID: int64(i)})
	}
	return idx
}

// BenchmarkQueryMaxSharded compares the per-query cost of the shard
// fan-out against a single stripe; results are identical by construction
// (TestShardedMatchesSingleShard), only the locking granularity differs.
func BenchmarkQueryMaxSharded(b *testing.B) {
	c := newCorpus(b, 8, 903)
	queries := make([]*features.BinarySet, len(c.sets))
	for i := range queries {
		queries[i] = c.variantSet(i)
	}
	for _, shards := range []int{1, DefaultShards} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			idx := benchShardedIndex(c, shards)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.QueryMax(queries[i%len(queries)])
			}
		})
	}
}

// BenchmarkQueryMaxShardedReaders is BenchmarkQueryMaxSharded under
// concurrent readers (b.RunParallel, one goroutine per core): a lone
// query only shows the stripe fan-out's overhead, while striping exists
// for load, so the two stripe counts are compared with every core
// querying at once.
func BenchmarkQueryMaxShardedReaders(b *testing.B) {
	c := newCorpus(b, 8, 903)
	queries := make([]*features.BinarySet, len(c.sets))
	for i := range queries {
		queries[i] = c.variantSet(i)
	}
	for _, shards := range []int{1, DefaultShards} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			idx := benchShardedIndex(c, shards)
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					idx.QueryMax(queries[int(next.Add(1))%len(queries)])
				}
			})
		})
	}
}

// BenchmarkQueryMaxBatch measures the batched CBRD query: 16 sets per
// operation, fanned across host cores and index shards.
func BenchmarkQueryMaxBatch(b *testing.B) {
	c := newCorpus(b, 8, 904)
	batch := make([]*features.BinarySet, 16)
	for i := range batch {
		batch[i] = c.variantSet(i % len(c.sets))
	}
	idx := benchShardedIndex(c, DefaultShards)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.QueryMaxBatch(batch)
	}
}
