package index

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"bees/internal/features"
)

// TestShardedMatchesSingleShard pins the sharding invariant: because an
// image lives in exactly one shard and per-shard votes merge before the
// global candidate ranking, results are identical for every shard count.
func TestShardedMatchesSingleShard(t *testing.T) {
	c := newCorpus(t, 12, 80)
	build := func(shards int) *Index {
		cfg := DefaultConfig()
		cfg.Shards = shards
		idx := New(cfg)
		for i, s := range c.sets {
			idx.Add(&Entry{ID: ImageID(i), Set: s, GroupID: int64(i)})
		}
		return idx
	}
	single, many := build(1), build(8)
	if single.Len() != many.Len() {
		t.Fatalf("Len: %d vs %d", single.Len(), many.Len())
	}
	for i := range c.sets {
		q := c.variantSet(i)
		a, b := single.QueryTopK(q, 5), many.QueryTopK(q, 5)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: sharded results diverge\nsingle: %+v\nsharded: %+v", i, a, b)
		}
		simA := single.QueryMaxBatch([]*features.BinarySet{q})
		simB := many.QueryMaxBatch([]*features.BinarySet{q})
		if !reflect.DeepEqual(simA, simB) {
			t.Fatalf("query %d: batch sims diverge: %v vs %v", i, simA, simB)
		}
	}
}

// TestShardsDefaultedOnZero checks Config.Shards is repaired, not
// rejected — pre-sharding callers construct Config literals without it.
func TestShardsDefaultedOnZero(t *testing.T) {
	idx := New(Config{Tables: 2, BitsPerKey: 8})
	if got := len(idx.shards); got != DefaultShards {
		t.Fatalf("zero Shards gave %d stripes, want %d", got, DefaultShards)
	}
	idx = New(Config{Tables: 2, BitsPerKey: 8, Shards: 3})
	if got := len(idx.shards); got != 3 {
		t.Fatalf("Shards=3 gave %d stripes", got)
	}
}

// TestConcurrentQueryUpload hammers the sharded index with concurrent
// writers and readers. Run under -race (tier2) this proves the striped
// locking is sound; without it, it still checks nothing is lost.
func TestConcurrentQueryUpload(t *testing.T) {
	c := newCorpus(t, 8, 81)
	cfg := DefaultConfig()
	cfg.Shards = 4
	idx := New(cfg)
	const writers, perWriter = 4, 6
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				src := (w + j) % len(c.sets)
				idx.Add(&Entry{ID: ImageID(w*perWriter + j), Set: c.sets[src], GroupID: int64(src)})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				idx.QueryMax(c.sets[(r+j)%len(c.sets)])
				idx.Len()
			}
		}(r)
	}
	wg.Wait()
	if idx.Len() != writers*perWriter {
		t.Fatalf("Len = %d after concurrent adds, want %d", idx.Len(), writers*perWriter)
	}
	// Every entry must be findable and correctly ranked once quiescent.
	for i := range c.sets {
		if _, sim := idx.QueryMax(c.variantSet(i)); sim <= 0 {
			t.Fatalf("entry %d unretrievable after concurrent build", i)
		}
	}
}

// TestCandidatesAcrossPartitionMatchesCombined pins the multi-index
// primitive: however the entries are partitioned over indexes (and
// however each index is striped), CandidatesAcross returns exactly what
// QueryCandidates returns on one index holding all of them — same
// candidates, same order, same votes, same floats. Entries reuse a few
// scenes under many IDs, so vote ties are the norm and the (votes desc,
// ID asc) rule decides most truncations.
func TestCandidatesAcrossPartitionMatchesCombined(t *testing.T) {
	c := newCorpus(t, 6, 82)
	const entries = 30
	queries := make([]*features.BinarySet, 4)
	for i := range queries {
		queries[i] = c.variantSet(i)
	}
	queries = append(queries, &features.BinarySet{}) // no descriptors: no candidates
	combined := New(DefaultConfig())
	for id := 0; id < entries; id++ {
		combined.Add(&Entry{ID: ImageID(id), Set: c.sets[id%len(c.sets)], GroupID: int64(id % 7)})
	}
	if n := len(combined.QueryCandidates(queries[0], entries)); n < 2*len(c.sets) {
		t.Fatalf("query 0 has only %d candidates; truncation would never bite", n)
	}
	check := func(seed int64, parts, stripes uint8, limit uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		idxs := make([]*Index, 1+int(parts)%9)
		for i := range idxs {
			cfg := DefaultConfig()
			cfg.Shards = 1 + int(stripes)%4
			idxs[i] = New(cfg)
		}
		for id := 0; id < entries; id++ {
			idxs[rng.Intn(len(idxs))].Add(&Entry{ID: ImageID(id), Set: c.sets[id%len(c.sets)], GroupID: int64(id % 7)})
		}
		lim := int(limit) % (entries + 3) // 0, truncating, and past-the-end limits
		for qi, q := range queries {
			got, want := CandidatesAcross(idxs, q, lim), combined.QueryCandidates(q, lim)
			if !reflect.DeepEqual(got, want) {
				t.Logf("query %d, %d indexes, limit %d:\n got %+v\nwant %+v", qi, len(idxs), lim, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
