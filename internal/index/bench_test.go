package index

import (
	"slices"
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
		idx.ForEach(func(e *Entry) {
			if sim := jaccardRef(q, e.Set, idx.cfg.HammingMax); sim > bestSim {
				bestSim, best = sim, e
			}
		})
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

// BenchmarkAddBatch measures one commit's insert: the corpus as one
// batch, prepared and hashed in parallel, linked under one lock hold.
func BenchmarkAddBatch(b *testing.B) {
	c := newCorpus(b, 8, 902)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := New(DefaultConfig())
		batch := make([]*Entry, len(c.sets))
		for j, s := range c.sets {
			batch[j] = &Entry{ID: ImageID(j), Set: s}
		}
		idx.AddBatch(batch)
	}
}

// BenchmarkQueryMaxBatch measures the batched CBRD query: 16 sets per
// operation, fanned across host cores, over 64 entries (the corpus sets
// reused under distinct IDs).
func BenchmarkQueryMaxBatch(b *testing.B) {
	c := newCorpus(b, 8, 904)
	batch := make([]*features.BinarySet, 16)
	for i := range batch {
		batch[i] = c.variantSet(i % len(c.sets))
	}
	idx := New(DefaultConfig())
	for i := 0; i < 64; i++ {
		idx.Add(&Entry{ID: ImageID(i), Set: c.sets[i%len(c.sets)], GroupID: int64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.QueryMaxBatch(batch)
	}
}

// warmCorpus is the benchmark workload's warm index: 64 extracted scenes,
// each under 6 IDs, 384 entries in all.
func warmCorpus(b *testing.B) (*testCorpus, []*Entry) {
	c := newCorpus(b, 64, 905)
	entries := make([]*Entry, 6*len(c.sets))
	for i := range entries {
		entries[i] = &Entry{ID: ImageID(i), Set: c.sets[i%len(c.sets)], GroupID: int64(i)}
	}
	return c, entries
}

// BenchmarkQueryMaxWarm measures one query frame on a warm index: one
// 8-set QueryMaxBatch over the 384-entry warm corpus, inserted one entry
// at a time as a seeded server does, so the arena is re-laid at every
// doubling and its newest postings are still scattered.
func BenchmarkQueryMaxWarm(b *testing.B) {
	c, entries := warmCorpus(b)
	idx := New(DefaultConfig())
	for _, e := range entries {
		idx.Add(e)
	}
	batch := make([]*features.BinarySet, 8)
	for i := range batch {
		batch[i] = c.variantSet(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.QueryMaxBatch(batch)
	}
}

// BenchmarkRelayout measures the relayout stall on the warm corpus with
// every posting scattered: the entries are linked without the trigger,
// and each run restores that arena before re-laying it.
func BenchmarkRelayout(b *testing.B) {
	_, entries := warmCorpus(b)
	idx := New(DefaultConfig())
	for _, e := range entries {
		idx.link(e, idx.prepare(e))
	}
	heads, arena := slices.Clone(idx.heads), idx.arena
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(idx.heads, heads)
		idx.arena = arena
		b.StartTimer()
		idx.relayout()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(idx.used-1), "ns/posting")
}
