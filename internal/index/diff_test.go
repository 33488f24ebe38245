package index

// Differential tests: the index's prepared-kernel re-ranking must report
// exactly the similarities the brute-force reference matcher computes,
// and ExhaustiveMax must agree with a by-hand reference scan.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bees/internal/features"
)

// jaccardRef is Equation 2 on the brute-force mutual-best matcher, the
// oracle the prepared kernel is pinned against: each descriptor's nearest
// neighbour within hammingMax (lowest index on ties), cross-checked both
// ways, over the union of the two sets.
func jaccardRef(a, b *features.BinarySet, hammingMax int) float64 {
	nearest := func(from, to []features.Descriptor) []int {
		best := make([]int, len(from))
		for i, d := range from {
			best[i] = -1
			bestDist := hammingMax + 1
			for j, e := range to {
				h := bits.OnesCount64(d[0]^e[0]) + bits.OnesCount64(d[1]^e[1]) +
					bits.OnesCount64(d[2]^e[2]) + bits.OnesCount64(d[3]^e[3])
				if h < bestDist {
					bestDist, best[i] = h, j
				}
			}
		}
		return best
	}
	ab, ba := nearest(a.Descriptors, b.Descriptors), nearest(b.Descriptors, a.Descriptors)
	m := 0
	for i, j := range ab {
		if j >= 0 && ba[j] == i {
			m++
		}
	}
	if union := a.Len() + b.Len() - m; union > 0 {
		return float64(m) / float64(union)
	}
	return 0
}

func TestQueryTopKSimilaritiesMatchReference(t *testing.T) {
	c := newCorpus(t, 10, 0xd1f)
	idx := buildIndex(c)
	for i := 0; i < 4; i++ {
		q := c.variantSet(i)
		for _, res := range idx.QueryTopK(q, 5) {
			e := idx.Get(res.ID)
			want := jaccardRef(q, e.Set, idx.cfg.HammingMax)
			if res.Similarity != want {
				t.Fatalf("query %d: result %d similarity %v, reference %v",
					i, res.ID, res.Similarity, want)
			}
		}
	}
}

func TestExhaustiveMaxMatchesReference(t *testing.T) {
	c := newCorpus(t, 8, 0xe4a)
	idx := buildIndex(c)
	for i := 0; i < 3; i++ {
		q := c.variantSet(i)
		gotE, gotSim := idx.ExhaustiveMax(q)
		// Reference scan, same ID order and same strict-improvement rule.
		var wantE *Entry
		wantSim := 0.0
		idx.ForEach(func(e *Entry) {
			if sim := jaccardRef(q, e.Set, idx.cfg.HammingMax); sim > wantSim {
				wantSim, wantE = sim, e
			}
		})
		if gotSim != wantSim || gotE != wantE {
			t.Fatalf("query %d: ExhaustiveMax = (%v, %v), reference (%v, %v)",
				i, gotE, gotSim, wantE, wantSim)
		}
	}
}

// TestFlatMatchesRefDifferential drives the flat index and the striped
// reference through the same random interleaving of Add, AddBatch,
// re-adds, relayouts and queries, with the IDs split over several
// indexes, and requires identical answers from CandidatesAcross (IDs,
// votes, float bits), QueryTopK and QueryMaxBatch, and QueryMax's (ID,
// similarity) equal to the reference's QueryTopK(q, 1). Re-adds run only against a
// one-stripe reference: a re-add skips a bucket whose newest posting is
// already the ID, and "newest" is per stripe in the reference, so its
// own answers then depend on the stripe count. Relayouts come both from
// direct calls at random steps and from inserts; a third of the runs
// start with wide, a random set large enough that its one insert crosses
// the relayout floor, and part, 300 of its descriptors, is a query that
// wide's entries answer.
func TestFlatMatchesRefDifferential(t *testing.T) {
	c := newCorpus(t, 5, 0xd1f5)
	wide := &features.BinarySet{Descriptors: make([]features.Descriptor, 4500)}
	wrng := rand.New(rand.NewSource(0x1a1d))
	for i := range wide.Descriptors {
		for w := range wide.Descriptors[i] {
			wide.Descriptors[i][w] = wrng.Uint64()
		}
	}
	sets := append(slices.Clone(c.sets), &features.BinarySet{}) // indexed, never voted for
	// Two queries repeat bucket keys far more than ORB sets do, so the
	// flat index's once-per-bucket multiplicity walk meets the
	// reference's once-per-key vote loop: a set holding each of its
	// descriptors twice, and one descriptor forty times.
	twice := &features.BinarySet{Descriptors: append(slices.Clone(c.sets[2].Descriptors), c.sets[2].Descriptors...)}
	forty := &features.BinarySet{Descriptors: make([]features.Descriptor, 40)}
	for i := range forty.Descriptors {
		forty.Descriptors[i] = c.sets[3].Descriptors[0]
	}
	part := &features.BinarySet{Descriptors: wide.Descriptors[:300]}
	queries := []*features.BinarySet{c.variantSet(0), c.sets[2], {}, twice, forty, part}
	triggered := 0 // steps whose inserts alone re-laid an index
	cfg := DefaultConfig()
	cfg.CandidateLimit = 8 // few exact re-ranks per QueryTopK
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stripes := []int{1, 3, 8}[rng.Intn(3)]
		parts := 1 + rng.Intn(3)
		wideFirst := rng.Intn(3) == 0
		flat, ref := make([]*Index, parts), make([]*indexRef, parts)
		for p := range flat {
			flat[p], ref[p] = New(cfg), newIndexRef(cfg, stripes)
		}
		var home []int // home[id]: the index owning id
		fail := func(format string, args ...any) bool {
			t.Logf("seed %d, %d stripes, %d indexes: "+format, append([]any{seed, stripes, parts}, args...)...)
			return false
		}
		compare := func() bool {
			for _, lim := range []int{0, 1, 24, len(home) + 5} {
				for qi, q := range queries {
					got, want := CandidatesAcross(flat, q, lim), refCandidatesAcross(ref, q, lim)
					if !sameBits(got, want) {
						return fail("query %d limit %d candidates:\n got %+v\nwant %+v", qi, lim, got, want)
					}
				}
			}
			for p := range flat {
				if flat[p].Len() != ref[p].Len() {
					return fail("index %d: Len %d vs %d", p, flat[p].Len(), ref[p].Len())
				}
				for _, k := range []int{0, 3} {
					for qi, q := range queries {
						if got, want := flat[p].QueryTopK(q, k), ref[p].QueryTopK(q, k); !sameBits(got, want) {
							return fail("index %d query %d QueryTopK(%d):\n got %+v\nwant %+v", p, qi, k, got, want)
						}
					}
				}
				if got, want := flat[p].QueryMaxBatch(queries), ref[p].QueryMaxBatch(queries); !sameBits(got, want) {
					return fail("index %d QueryMaxBatch: got %v want %v", p, got, want)
				}
				for qi, q := range queries {
					if got, want := maxOf(flat[p].QueryMax(q)), topOne(ref[p].QueryTopK(q, 1)); !sameBits(got, want) {
						return fail("index %d query %d QueryMax: got %+v want %+v", p, qi, got, want)
					}
				}
			}
			for id, p := range home {
				if got, want := flat[p].Get(ImageID(id)), ref[p].Get(ImageID(id)); got.GroupID != want.GroupID {
					return fail("Get(%d): group %d vs %d", id, got.GroupID, want.GroupID)
				}
			}
			return true
		}
		for step := 0; step < 16; step++ {
			// One Add or an AddBatch of up to four entries; a batch is
			// split per owning index, in order.
			n := 1
			batch := rng.Intn(2) == 0
			if batch {
				n = 1 + rng.Intn(4)
			}
			perIndex := make([][]*Entry, parts)
			laid := make([]int32, parts)
			for p := range flat {
				laid[p] = flat[p].laid
			}
			for k := 0; k < n; k++ {
				id := len(home)
				if stripes == 1 && id > 0 && rng.Intn(3) == 0 {
					id = rng.Intn(len(home))
				} else {
					home = append(home, rng.Intn(parts))
				}
				set, group := sets[rng.Intn(len(sets))], rng.Int63n(5)
				if id == 0 && wideFirst {
					set = wide
				}
				p := home[id]
				ref[p].Add(&Entry{ID: ImageID(id), Set: set, GroupID: group})
				e := &Entry{ID: ImageID(id), Set: set, GroupID: group}
				if batch {
					perIndex[p] = append(perIndex[p], e)
				} else {
					flat[p].Add(e)
				}
			}
			for p, es := range perIndex {
				if len(es) > 0 {
					flat[p].AddBatch(es)
				}
			}
			for p := range flat {
				if flat[p].laid != laid[p] {
					triggered++
				}
			}
			if rng.Intn(4) == 0 {
				flat[rng.Intn(parts)].relayout()
			}
			if step%6 == 5 && !compare() {
				return false
			}
		}
		return compare()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 24}); err != nil {
		t.Fatal(err)
	}
	if triggered == 0 {
		t.Fatal("no insert crossed a relayout threshold: the trigger went unexercised")
	}
	t.Logf("%d insert steps triggered a relayout", triggered)
}

// best is a QueryMax answer reduced to what QueryTopK(q, 1) also says:
// the winning ID (-1 for none) and its similarity.
type best struct {
	ID         ImageID
	Similarity float64
}

func maxOf(e *Entry, sim float64) best {
	if e == nil {
		return best{-1, sim}
	}
	return best{e.ID, sim}
}

func topOne(res []Result) best {
	if len(res) == 0 {
		return best{-1, 0}
	}
	return best{res[0].ID, res[0].Similarity}
}

// sameBits reports whether a and b print identically with %#v, which
// spells every float in its shortest round-trip form (so floats with
// different bits print differently) and tells a nil slice from an empty
// one.
func sameBits(a, b any) bool { return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) }

// TestQueryMaxMatchesTopOne pins the max-only path's tie rule. Each
// corpus is a few copies and near-copies of one random set under
// shuffled IDs: exact copies tie in similarity at equal votes, and
// copies with a few bits flipped keep their matches but move bucket
// keys, so they tie in similarity at different votes, often with the
// lower ID ranked later. QueryMax must name QueryTopK(q, 1)'s entry with
// the same float bits, and QueryMaxBatch must report the maximum of the
// QueryCandidates similarities.
func TestQueryMaxMatchesTopOne(t *testing.T) {
	randomSet := func(rng *rand.Rand, n int) *features.BinarySet {
		s := &features.BinarySet{Descriptors: make([]features.Descriptor, n)}
		for i := range s.Descriptors {
			for w := range s.Descriptors[i] {
				s.Descriptors[i][w] = rng.Uint64()
			}
		}
		return s
	}
	// near copies base, dropping some descriptors when drop is set and
	// flipping up to three bits in others, all well inside the radius.
	near := func(rng *rand.Rand, base *features.BinarySet, drop bool) *features.BinarySet {
		s := &features.BinarySet{}
		for _, d := range base.Descriptors {
			if drop && rng.Intn(4) == 0 {
				continue
			}
			if rng.Intn(3) == 0 {
				for k := rng.Intn(4); k > 0; k-- {
					b := rng.Intn(256)
					d[b/64] ^= 1 << (b % 64)
				}
			}
			s.Descriptors = append(s.Descriptors, d)
		}
		return s
	}
	lateWins := 0 // queries whose winner tied a candidate with more votes
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := randomSet(rng, 8+rng.Intn(24))
		cfg := DefaultConfig()
		cfg.CandidateLimit = 2 + rng.Intn(8)
		idx := New(cfg)
		n := 4 + rng.Intn(16)
		var sets []*features.BinarySet
		for _, id := range rng.Perm(n) {
			s := near(rng, base, rng.Intn(2) == 0)
			if len(sets) > 0 && rng.Intn(3) == 0 {
				s = sets[rng.Intn(len(sets))]
			}
			sets = append(sets, s)
			idx.Add(&Entry{ID: ImageID(id), Set: s})
		}
		queries := []*features.BinarySet{base, near(rng, base, false), near(rng, base, true), randomSet(rng, 8)}
		sims := idx.QueryMaxBatch(queries)
		for qi, q := range queries {
			e, sim := idx.QueryMax(q)
			if got, want := maxOf(e, sim), topOne(idx.QueryTopK(q, 1)); !sameBits(got, want) {
				t.Logf("seed %d query %d: QueryMax %+v, QueryTopK(q, 1) %+v", seed, qi, got, want)
				return false
			}
			cands := idx.QueryCandidates(q, cfg.CandidateLimit)
			top := 0.0
			for _, c := range cands {
				top = max(top, c.Similarity)
			}
			if !sameBits(sims[qi], top) {
				t.Logf("seed %d query %d: QueryMaxBatch %v, max of candidates %v", seed, qi, sims[qi], top)
				return false
			}
			if e == nil {
				continue
			}
			votes := 0
			for _, c := range cands {
				if c.ID == e.ID {
					votes = c.Votes
				}
			}
			for _, c := range cands {
				if c.Similarity == sim && c.Votes > votes {
					lateWins++
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if lateWins == 0 {
		t.Fatal("no winner tied a candidate with more votes: the tie rule went unexercised")
	}
	t.Logf("%d winners tied a candidate with more votes", lateWins)
}
