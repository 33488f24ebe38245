package index

import (
	"math/rand"
	"sync"
	"testing"

	"bees/internal/features"
	"bees/internal/imagelib"
)

type testCorpus struct {
	pool   *imagelib.MotifPool
	scenes []*imagelib.Scene
	sets   []*features.BinarySet
	rng    *rand.Rand
}

func newCorpus(t testing.TB, n int, seed int64) *testCorpus {
	t.Helper()
	c := &testCorpus{
		pool: imagelib.NewMotifPool(500, 500, 40),
		rng:  rand.New(rand.NewSource(seed)),
	}
	cfg := features.DefaultConfig()
	for i := 0; i < n; i++ {
		s := imagelib.GenScene(c.pool, c.rng)
		r := s.Render(c.pool, imagelib.DefaultW, imagelib.DefaultH, imagelib.CanonicalVariant())
		c.scenes = append(c.scenes, s)
		c.sets = append(c.sets, features.ExtractORB(r, cfg))
	}
	return c
}

func (c *testCorpus) variantSet(i int) *features.BinarySet {
	r := c.scenes[i].Render(c.pool, imagelib.DefaultW, imagelib.DefaultH,
		imagelib.Variant{ShiftX: 3, ShiftY: -2, Brightness: 5, NoiseSigma: 2.5, Seed: c.rng.Int63()})
	return features.ExtractORB(r, features.DefaultConfig())
}

// Get returns the entry for id, or nil. Only tests look entries up by
// ID; the query paths carry the entry they found.
func (x *Index) Get(id ImageID) *Entry {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if slot, ok := x.slots[id]; ok {
		return x.entries[slot]
	}
	return nil
}

func buildIndex(c *testCorpus) *Index {
	idx := New(DefaultConfig())
	for i, s := range c.sets {
		idx.Add(&Entry{ID: ImageID(i), Set: s, GroupID: int64(i)})
	}
	return idx
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Tables: 0, BitsPerKey: 16},
		{Tables: 4, BitsPerKey: 0},
		{Tables: 4, BitsPerKey: 21}, // the dense directory stops at 20 bits
		{Tables: 4, BitsPerKey: 40},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestConfigDefaultsRepaired(t *testing.T) {
	idx := New(Config{Tables: 2, BitsPerKey: 8})
	if idx.cfg.CandidateLimit <= 0 || idx.cfg.HammingMax <= 0 {
		t.Fatal("zero config fields not repaired")
	}
}

func TestEmptyIndexQueries(t *testing.T) {
	idx := New(DefaultConfig())
	c := newCorpus(t, 1, 60)
	if e, sim := idx.QueryMax(c.sets[0]); e != nil || sim != 0 {
		t.Fatal("empty index QueryMax should return nil, 0")
	}
	if res := idx.QueryTopK(c.sets[0], 4); res != nil {
		t.Fatal("empty index QueryTopK should return nil")
	}
	if idx.Len() != 0 {
		t.Fatal("empty index Len != 0")
	}
}

func TestAddNilSafe(t *testing.T) {
	idx := New(DefaultConfig())
	idx.Add(nil)
	idx.Add(&Entry{ID: 1, Set: nil})
	if idx.Len() != 0 {
		t.Fatal("nil adds should be ignored")
	}
}

func TestQueryFindsExactDuplicate(t *testing.T) {
	c := newCorpus(t, 20, 61)
	idx := buildIndex(c)
	e, sim := idx.QueryMax(c.sets[7])
	if e == nil || e.ID != 7 {
		t.Fatalf("QueryMax on duplicate returned %+v", e)
	}
	if sim < 0.9 {
		t.Fatalf("duplicate similarity = %v, want ~1", sim)
	}
}

func TestQueryFindsSimilarVariant(t *testing.T) {
	c := newCorpus(t, 30, 62)
	idx := buildIndex(c)
	hits := 0
	for i := 0; i < 10; i++ {
		e, sim := idx.QueryMax(c.variantSet(i))
		if e != nil && e.ID == ImageID(i) && sim > 0.019 {
			hits++
		}
	}
	if hits < 8 {
		t.Fatalf("variant queries found their scene only %d/10 times", hits)
	}
}

func TestQueryTopKRanked(t *testing.T) {
	c := newCorpus(t, 25, 63)
	idx := buildIndex(c)
	res := idx.QueryTopK(c.variantSet(3), 5)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	for i := 1; i < len(res); i++ {
		if res[i].Similarity > res[i-1].Similarity {
			t.Fatal("results not ranked by similarity")
		}
	}
	if res[0].ID != 3 {
		t.Fatalf("top result = %d, want 3", res[0].ID)
	}
}

func TestQueryTopKLimit(t *testing.T) {
	c := newCorpus(t, 10, 64)
	idx := buildIndex(c)
	if res := idx.QueryTopK(c.sets[0], 3); len(res) > 3 {
		t.Fatalf("QueryTopK(3) returned %d results", len(res))
	}
	if res := idx.QueryTopK(c.sets[0], 0); res != nil {
		t.Fatal("QueryTopK(0) should return nil")
	}
}

func TestLSHAgreesWithExhaustive(t *testing.T) {
	c := newCorpus(t, 40, 65)
	idx := buildIndex(c)
	agree := 0
	const trials = 12
	for i := 0; i < trials; i++ {
		q := c.variantSet(i)
		eL, simL := idx.QueryMax(q)
		eX, simX := idx.ExhaustiveMax(q)
		if eL != nil && eX != nil && eL.ID == eX.ID {
			agree++
			if simL != simX {
				t.Fatalf("same image, different similarity: %v vs %v", simL, simX)
			}
		}
	}
	if agree < trials-2 {
		t.Fatalf("LSH agreed with exhaustive on only %d/%d queries", agree, trials)
	}
}

func TestGet(t *testing.T) {
	c := newCorpus(t, 5, 66)
	idx := buildIndex(c)
	if e := idx.Get(2); e == nil || e.ID != 2 {
		t.Fatal("Get(2) failed")
	}
	if e := idx.Get(99); e != nil {
		t.Fatal("Get(99) should be nil")
	}
}

func TestEntryMetadataPreserved(t *testing.T) {
	c := newCorpus(t, 3, 67)
	idx := New(DefaultConfig())
	idx.Add(&Entry{ID: 1, Set: c.sets[0], GroupID: 42, Lat: 48.86, Lon: 2.33})
	e := idx.Get(1)
	if e.GroupID != 42 || e.Lat != 48.86 || e.Lon != 2.33 {
		t.Fatalf("metadata lost: %+v", e)
	}
	res := idx.QueryTopK(c.sets[0], 1)
	if len(res) != 1 || res[0].GroupID != 42 {
		t.Fatal("GroupID not propagated to results")
	}
}

// TestConcurrentAddQuery runs Add and AddBatch beside QueryMax and
// QueryMaxBatch; the queries share pooled scratch (sorted keys, votes)
// across goroutines, which -race checks. Once quiescent, the max-only
// path must still answer as QueryTopK(q, 1).
func TestConcurrentAddQuery(t *testing.T) {
	c := newCorpus(t, 20, 68)
	idx := New(DefaultConfig())
	entry := func(i int) *Entry { return &Entry{ID: ImageID(i), Set: c.sets[i], GroupID: int64(i)} }
	var wg sync.WaitGroup
	for i := 0; i < 20; i += 2 {
		wg.Add(4)
		go func(i int) {
			defer wg.Done()
			idx.Add(entry(i))
		}(i)
		go func(i int) {
			defer wg.Done()
			idx.AddBatch([]*Entry{entry(i + 1)})
		}(i)
		go func(i int) {
			defer wg.Done()
			idx.QueryMax(c.sets[i])
		}(i)
		go func(i int) {
			defer wg.Done()
			idx.QueryMaxBatch(c.sets[i : i+2])
		}(i)
	}
	wg.Wait()
	if idx.Len() != 20 {
		t.Fatalf("after concurrent adds Len = %d, want 20", idx.Len())
	}
	sims := idx.QueryMaxBatch(c.sets)
	for i, q := range c.sets {
		e, sim := idx.QueryMax(q)
		if got, want := maxOf(e, sim), topOne(idx.QueryTopK(q, 1)); !sameBits(got, want) || sim != sims[i] {
			t.Fatalf("set %d: QueryMax %+v, QueryMaxBatch %v, QueryTopK(q, 1) %+v", i, got, sims[i], want)
		}
	}
}

func TestHashKeyUsesSelectedBits(t *testing.T) {
	var d features.Descriptor
	d[0] = 0b1010
	sel := []int{0, 1, 2, 3}
	if got := hashKey(d, sel); got != 0b1010 {
		t.Fatalf("hashKey = %b, want 1010", got)
	}
	sel = []int{1, 3}
	if got := hashKey(d, sel); got != 0b11 {
		t.Fatalf("hashKey = %b, want 11", got)
	}
}

func TestBitSelectionDeterministic(t *testing.T) {
	a := New(DefaultConfig())
	b := New(DefaultConfig())
	for t2 := range a.bitSel {
		for i := range a.bitSel[t2] {
			if a.bitSel[t2][i] != b.bitSel[t2][i] {
				t.Fatal("bit selection differs across identically-configured indexes")
			}
		}
	}
}

func TestQueryDropsZeroSimilarityCandidates(t *testing.T) {
	c := newCorpus(t, 10, 69)
	idx := buildIndex(c)
	// Every returned result must carry positive similarity (hash-bucket
	// collisions with no exact match are filtered).
	for q := 0; q < 5; q++ {
		for _, r := range idx.QueryTopK(c.variantSet(q), 10) {
			if r.Similarity <= 0 {
				t.Fatalf("zero-similarity result leaked: %+v", r)
			}
		}
	}
}

func TestForEachOrderedAndComplete(t *testing.T) {
	c := newCorpus(t, 6, 70)
	idx := buildIndex(c)
	var ids []ImageID
	idx.ForEach(func(e *Entry) { ids = append(ids, e.ID) })
	if len(ids) != 6 {
		t.Fatalf("ForEach visited %d entries", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("ForEach not in ascending ID order")
		}
	}
}

func TestBucketKeysBounded(t *testing.T) {
	// Keys must fit in BitsPerKey bits: descriptor j's bucket in table t
	// lies inside table t's slice of the dense directory.
	cfg := DefaultConfig()
	idx := New(cfg)
	if got, want := len(idx.heads), cfg.Tables<<cfg.BitsPerKey; got != want {
		t.Fatalf("directory holds %d heads, want %d", got, want)
	}
	c := newCorpus(t, 3, 71)
	for i, s := range c.sets {
		idx.Add(&Entry{ID: ImageID(i), Set: s})
		buckets := idx.hash(s, nil)
		n := s.Len()
		for j, b := range buckets {
			if tbl := j / n; int(b>>uint(cfg.BitsPerKey)) != tbl {
				t.Fatalf("descriptor %d: bucket %d outside table %d's %d-bit range", j%n, b, tbl, cfg.BitsPerKey)
			}
			if key := b & (1<<uint(cfg.BitsPerKey) - 1); key != hashKey(s.Descriptors[j%n], idx.bitSel[j/n]) {
				t.Fatalf("descriptor %d: bucket %d does not carry its table-%d key", j%n, b, j/n)
			}
		}
	}
}
