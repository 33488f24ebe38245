package index

// Differential tests: the index's prepared-kernel re-ranking must report
// exactly the similarities the brute-force reference matcher computes,
// and ExhaustiveMax must agree with a by-hand reference scan.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bees/internal/features"
)

func TestQueryTopKSimilaritiesMatchReference(t *testing.T) {
	c := newCorpus(t, 10, 0xd1f)
	idx := buildIndex(c)
	for i := 0; i < 4; i++ {
		q := c.variantSet(i)
		for _, res := range idx.QueryTopK(q, 5) {
			e := idx.Get(res.ID)
			want := features.JaccardBinaryRef(q, e.Set, idx.cfg.HammingMax)
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
			if sim := features.JaccardBinaryRef(q, e.Set, idx.cfg.HammingMax); sim > wantSim {
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
// re-adds and queries, with the IDs split over several indexes, and
// requires identical answers from CandidatesAcross (IDs, votes, float
// bits), QueryTopK and QueryMaxBatch. Re-adds run only against a
// one-stripe reference: a re-add skips a bucket whose newest posting is
// already the ID, and "newest" is per stripe in the reference, so its
// own answers then depend on the stripe count.
func TestFlatMatchesRefDifferential(t *testing.T) {
	c := newCorpus(t, 5, 0xd1f5)
	sets := append(slices.Clone(c.sets), &features.BinarySet{}) // indexed, never voted for
	queries := []*features.BinarySet{c.variantSet(0), c.sets[2], {}}
	cfg := DefaultConfig()
	cfg.CandidateLimit = 8 // few exact re-ranks per QueryTopK
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stripes := []int{1, 3, 8}[rng.Intn(3)]
		parts := 1 + rng.Intn(3)
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
			for k := 0; k < n; k++ {
				id := len(home)
				if stripes == 1 && id > 0 && rng.Intn(3) == 0 {
					id = rng.Intn(len(home))
				} else {
					home = append(home, rng.Intn(parts))
				}
				set, group := sets[rng.Intn(len(sets))], rng.Int63n(5)
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
			if step%6 == 5 && !compare() {
				return false
			}
		}
		return compare()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 24}); err != nil {
		t.Fatal(err)
	}
}

// sameBits reports whether a and b print identically with %#v, which
// spells every float in its shortest round-trip form (so floats with
// different bits print differently) and tells a nil slice from an empty
// one.
func sameBits(a, b any) bool { return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) }
