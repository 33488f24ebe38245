package index

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"bees/internal/features"
)

// TestShardedMatchesSingleShard pins the flat index to the striped
// reference: results are identical to the reference at one stripe and
// at eight, so dropping the stripes changed no answer.
func TestShardedMatchesSingleShard(t *testing.T) {
	c := newCorpus(t, 12, 80)
	flat := New(DefaultConfig())
	for i, s := range c.sets {
		flat.Add(&Entry{ID: ImageID(i), Set: s, GroupID: int64(i)})
	}
	for _, shards := range []int{1, 8} {
		ref := newIndexRef(DefaultConfig(), shards)
		for i, s := range c.sets {
			ref.Add(&Entry{ID: ImageID(i), Set: s, GroupID: int64(i)})
		}
		if flat.Len() != ref.Len() {
			t.Fatalf("Len: %d vs reference %d", flat.Len(), ref.Len())
		}
		for i := range c.sets {
			q := c.variantSet(i)
			a, b := flat.QueryTopK(q, 5), ref.QueryTopK(q, 5)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%d stripes, query %d: results diverge\nflat: %+v\nref:  %+v", shards, i, a, b)
			}
			simA := flat.QueryMaxBatch([]*features.BinarySet{q})
			simB := ref.QueryMaxBatch([]*features.BinarySet{q})
			if !reflect.DeepEqual(simA, simB) {
				t.Fatalf("%d stripes, query %d: batch sims diverge: %v vs %v", shards, i, simA, simB)
			}
		}
	}
}

// TestShardsDefaultedOnZero checks a Config literal written before the
// stripe count existed, and so after it is gone, still builds: the
// reference repairs zero stripes to its old default of eight, and the
// flat index built from the same literal answers exactly as it does.
func TestShardsDefaultedOnZero(t *testing.T) {
	cfg := Config{Tables: 2, BitsPerKey: 8}
	if got := len(newIndexRef(cfg, 0).shards); got != refDefaultShards {
		t.Fatalf("zero stripes gave %d, want %d", got, refDefaultShards)
	}
	if got := len(newIndexRef(cfg, 3).shards); got != 3 {
		t.Fatalf("3 stripes gave %d", got)
	}
	c := newCorpus(t, 4, 83)
	flat, ref := New(cfg), newIndexRef(cfg, 0)
	for i, s := range c.sets {
		flat.Add(&Entry{ID: ImageID(i), Set: s})
		ref.Add(&Entry{ID: ImageID(i), Set: s})
	}
	for i := range c.sets {
		q := c.variantSet(i)
		if a, b := flat.QueryCandidates(q, 24), ref.QueryCandidates(q, 24); !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: 8-bit index diverges\nflat: %+v\nref:  %+v", i, a, b)
		}
	}
}

// TestConcurrentQueryUpload hammers the index with concurrent Add and
// AddBatch writers beside readers calling every read method. Run under
// -race (tier2) this proves the locking is sound; without it, it still
// checks nothing is lost and that the final index answers exactly as a
// reference built serially, since with fresh IDs the result does not
// depend on insertion order.
func TestConcurrentQueryUpload(t *testing.T) {
	c := newCorpus(t, 8, 81)
	idx := New(DefaultConfig())
	const writers, perWriter = 4, 6
	entry := func(id int) *Entry {
		src := id % len(c.sets)
		return &Entry{ID: ImageID(id), Set: c.sets[src], GroupID: int64(src)}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				for j := 0; j < perWriter; j++ {
					idx.Add(entry(w*perWriter + j))
				}
				return
			}
			for j := 0; j < perWriter; j += 3 {
				idx.AddBatch([]*Entry{entry(w*perWriter + j), entry(w*perWriter + j + 1), entry(w*perWriter + j + 2)})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				q := c.sets[(r+j)%len(c.sets)]
				idx.QueryMax(q)
				idx.QueryCandidates(q, 24)
				idx.Get(ImageID(j))
				idx.Len()
				prev := ImageID(-1)
				idx.ForEach(func(e *Entry) {
					if e.ID <= prev {
						t.Errorf("ForEach out of order: %d after %d", e.ID, prev)
					}
					prev = e.ID
				})
			}
		}(r)
	}
	wg.Wait()
	if idx.Len() != writers*perWriter {
		t.Fatalf("Len = %d after concurrent adds, want %d", idx.Len(), writers*perWriter)
	}
	ref := newIndexRef(DefaultConfig(), 1)
	for id := 0; id < writers*perWriter; id++ {
		ref.Add(entry(id))
	}
	// Every entry must be findable and correctly ranked once quiescent.
	for i := range c.sets {
		q := c.variantSet(i)
		if _, sim := idx.QueryMax(q); sim <= 0 {
			t.Fatalf("entry %d unretrievable after concurrent build", i)
		}
		if a, b := idx.QueryCandidates(q, 30), ref.QueryCandidates(q, 30); !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: concurrent build diverges from serial reference\ngot:  %+v\nwant: %+v", i, a, b)
		}
	}
}

// TestCandidatesAcrossPartitionMatchesCombined pins the multi-index
// primitive: however the entries are partitioned over indexes,
// CandidatesAcross returns exactly what QueryCandidates returns on one
// index holding all of them — same candidates, same order, same votes,
// same floats. Entries reuse a few scenes under many IDs, so vote ties
// are the norm and the (votes desc, ID asc) rule decides most
// truncations.
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
	check := func(seed int64, parts uint8, limit uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		idxs := make([]*Index, 1+int(parts)%9)
		for i := range idxs {
			idxs[i] = New(DefaultConfig())
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

// TestCandidatesAcrossRejectsMismatchedLSH: the query is hashed once
// with the first index's bit selectors, so an index sampling other bits
// would receive meaningless votes. Each LSH parameter that changes the
// selectors must panic; the re-rank parameters may differ.
func TestCandidatesAcrossRejectsMismatchedLSH(t *testing.T) {
	c := newCorpus(t, 1, 84)
	base := DefaultConfig()
	tables, bits := base, base
	tables.Tables++
	bits.BitsPerKey--
	for _, cfg := range []Config{tables, bits} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CandidatesAcross over %+v and %+v did not panic", base, cfg)
				}
			}()
			CandidatesAcross([]*Index{New(base), New(cfg)}, c.sets[0], 24)
		}()
	}
	rerank := base
	rerank.HammingMax++
	rerank.CandidateLimit++
	CandidatesAcross([]*Index{New(base), New(rerank)}, c.sets[0], 24)
}

// TestAddAllocsBounded pins an insert's allocation count, Prepare's
// included: the map-of-slices tables cost 760–970 allocations an image,
// the flat index a handful plus amortized arena and directory growth.
func TestAddAllocsBounded(t *testing.T) {
	c := newCorpus(t, 8, 85)
	const rounds = 16
	idx := New(DefaultConfig())
	entries := make([]Entry, (rounds+1)*len(c.sets)) // AllocsPerRun adds a warm-up call
	next := 0
	perRound := testing.AllocsPerRun(rounds, func() {
		for _, s := range c.sets {
			e := &entries[next]
			e.ID, e.Set = ImageID(next), s
			idx.Add(e)
			next++
		}
	})
	if perImage := perRound / float64(len(c.sets)); perImage > 16 {
		t.Fatalf("Add costs %.1f allocations per image, budget 16", perImage)
	}
}
