package index

import (
	"math/rand"
	"slices"
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
// across goroutines, which -race checks. The corpus goes in four times
// under distinct IDs, about 80k postings, so the inserts re-lay the arena
// at 16k, 32k and 64k while readers walk it. Once quiescent, the
// max-only path must still answer as QueryTopK(q, 1), and the candidates
// as the reference index built one entry at a time.
func TestConcurrentAddQuery(t *testing.T) {
	c := newCorpus(t, 20, 68)
	idx := New(DefaultConfig())
	const n = 80
	entry := func(i int) *Entry { return &Entry{ID: ImageID(i), Set: c.sets[i%len(c.sets)], GroupID: int64(i)} }
	var wg sync.WaitGroup
	for i := 0; i < n; i += 2 {
		q := i % len(c.sets)
		wg.Add(4)
		go func(i int) {
			defer wg.Done()
			idx.Add(entry(i))
		}(i)
		go func(i int) {
			defer wg.Done()
			idx.AddBatch([]*Entry{entry(i + 1)})
		}(i)
		go func() {
			defer wg.Done()
			idx.QueryMax(c.sets[q])
		}()
		go func() {
			defer wg.Done()
			idx.QueryMaxBatch(c.sets[q : q+2])
		}()
	}
	wg.Wait()
	if idx.Len() != n {
		t.Fatalf("after concurrent adds Len = %d, want %d", idx.Len(), n)
	}
	if idx.laid < 4<<chunkBits {
		t.Fatalf("last relayout at %d postings: the inserts stopped re-laying before 64k", idx.laid)
	}
	sims := idx.QueryMaxBatch(c.sets)
	for i, q := range c.sets {
		e, sim := idx.QueryMax(q)
		if got, want := maxOf(e, sim), topOne(idx.QueryTopK(q, 1)); !sameBits(got, want) || sim != sims[i] {
			t.Fatalf("set %d: QueryMax %+v, QueryMaxBatch %v, QueryTopK(q, 1) %+v", i, got, sims[i], want)
		}
	}
	// Fresh-ID answers do not depend on insert order, so the reference
	// built one entry at a time must agree.
	ref := newIndexRef(DefaultConfig(), 1)
	for i := 0; i < n; i++ {
		ref.Add(entry(i))
	}
	for i, q := range c.sets {
		if got, want := idx.QueryCandidates(q, n), ref.QueryCandidates(q, n); !sameBits(got, want) {
			t.Fatalf("set %d candidates:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// lists returns every bucket's posting slots, newest first, and checks
// that each posting is linked from exactly one list. A walk longer than
// the arena fails at once: a list that loops would otherwise grow
// without end.
func lists(t *testing.T, x *Index) [][]int32 {
	t.Helper()
	out := make([][]int32, len(x.heads))
	n := 0
	for b, head := range x.heads {
		for p := head; p != 0; p = x.at(p).next {
			if n++; n >= int(x.used) {
				t.Fatalf("bucket %d: the lists hold more than the arena's %d postings", b, x.used-1)
			}
			out[b] = append(out[b], x.at(p).slot)
		}
	}
	if n != int(x.used-1) {
		t.Fatalf("lists hold %d postings, the arena %d", n, x.used-1)
	}
	return out
}

// TestRelayoutKeepsLists pins what a relayout may change: only where the
// cells sit. Every bucket's slot list is the same, in order, before and
// after; each list is then one run of consecutive cells, the runs in
// ascending bucket order from cell 1; and inserts past the floor keep the
// arena within one doubling of its last relayout.
func TestRelayoutKeepsLists(t *testing.T) {
	c := newCorpus(t, 12, 72)
	idx := New(DefaultConfig())
	for i := 0; i < 40; i++ {
		idx.AddBatch([]*Entry{{ID: ImageID(i), Set: c.sets[i%len(c.sets)]}})
		if n := idx.used - 1; n >= 1<<chunkBits && n > 2*idx.laid {
			t.Fatalf("after insert %d: %d postings, last relayout at %d", i, n, idx.laid)
		}
	}
	if idx.laid == 0 {
		t.Fatalf("%d postings and no relayout", idx.used-1)
	}
	before := lists(t, idx)
	idx.relayout()
	if got := lists(t, idx); !slices.EqualFunc(got, before, slices.Equal[[]int32]) {
		t.Fatal("relayout changed a bucket's list")
	}
	if idx.laid != idx.used-1 {
		t.Fatalf("relayout recorded %d postings, the arena holds %d", idx.laid, idx.used-1)
	}
	next := int32(1)
	for b, head := range idx.heads {
		if head == 0 {
			continue
		}
		if head != next {
			t.Fatalf("bucket %d's run starts at cell %d, want %d", b, head, next)
		}
		for p := head; p != 0; p = idx.at(p).next {
			if p != next {
				t.Fatalf("bucket %d's run jumps to cell %d, want %d", b, p, next)
			}
			next++
		}
	}
}

// TestReAddAfterRelayout pins the re-add rule on a re-laid arena: a
// re-added ID skips exactly the buckets whose newest posting is already
// its own, and is pushed on every other bucket of its set. Entry 2 holds
// half of entry 0's descriptors, so re-adding 0 does both; re-adding 2,
// the newest entry, pushes nothing.
func TestReAddAfterRelayout(t *testing.T) {
	c := newCorpus(t, 2, 73)
	half := &features.BinarySet{Descriptors: c.sets[0].Descriptors[:c.sets[0].Len()/2]}
	sets := []*features.BinarySet{c.sets[0], c.sets[1], half}
	idx := New(DefaultConfig())
	newest := map[uint32]int{} // bucket → the last ID linked into it
	add := func(id int) {
		idx.Add(&Entry{ID: ImageID(id), Set: sets[id]})
		for _, b := range idx.prepare(&Entry{Set: sets[id]}) {
			newest[b] = id
		}
	}
	for id := range sets {
		add(id)
	}
	for _, id := range []int{2, 0} {
		idx.relayout()
		buckets := idx.prepare(&Entry{Set: sets[id]})
		want := 0
		for _, b := range buckets {
			if newest[b] != id {
				want++
			}
		}
		if id == 2 && want != 0 || id == 0 && (want == 0 || want == len(buckets)) {
			t.Fatalf("re-adding %d should push %d of its %d buckets", id, want, len(buckets))
		}
		used := idx.used
		add(id)
		if got := int(idx.used - used); got != want {
			t.Fatalf("re-adding %d pushed %d postings, want %d", id, got, want)
		}
		lists(t, idx)
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
