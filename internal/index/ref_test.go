package index

// indexRef is the lock-striped map-of-slices index the flat Index
// replaced, kept verbatim as the differential oracle: entries and their
// hash buckets are spread over independent stripes, each a map of
// entries plus one map[key][]ImageID per table behind its own RWMutex,
// and queries fan out over the stripes and merge votes before ranking.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"bees/internal/features"
	"bees/internal/par"
)

// refDefaultShards is the stripe count the reference selects for zero.
const refDefaultShards = 8

// refShard is one lock stripe: a slice of the entry map plus the
// matching slice of every hash table.
type refShard struct {
	mu      sync.RWMutex
	entries map[ImageID]*Entry
	tables  []map[uint32][]ImageID
}

type indexRef struct {
	cfg    Config
	shards []*refShard
	bitSel [][]int // read-only after newIndexRef
}

// newIndexRef creates an empty reference index of the given stripe
// count (zero or negative selects refDefaultShards). Shard assignment is
// a pure function of the image ID, so fresh-ID results do not depend on
// the count.
func newIndexRef(cfg Config, shards int) *indexRef {
	if cfg.Tables <= 0 || cfg.BitsPerKey <= 0 || cfg.BitsPerKey > 32 {
		panic(fmt.Sprintf("index: invalid config %+v", cfg))
	}
	if cfg.CandidateLimit <= 0 {
		cfg.CandidateLimit = 24
	}
	if cfg.HammingMax <= 0 {
		cfg.HammingMax = features.DefaultHammingMax
	}
	if shards <= 0 {
		shards = refDefaultShards
	}
	idx := &indexRef{
		cfg:    cfg,
		shards: make([]*refShard, shards),
		bitSel: make([][]int, cfg.Tables),
	}
	for s := range idx.shards {
		sh := &refShard{
			entries: make(map[ImageID]*Entry),
			tables:  make([]map[uint32][]ImageID, cfg.Tables),
		}
		for t := range sh.tables {
			sh.tables[t] = make(map[uint32][]ImageID)
		}
		idx.shards[s] = sh
	}
	rng := rand.New(rand.NewSource(lshSeed))
	for t := 0; t < cfg.Tables; t++ {
		sel := rng.Perm(256)[:cfg.BitsPerKey]
		sort.Ints(sel)
		idx.bitSel[t] = sel
	}
	return idx
}

func (x *indexRef) shardFor(id ImageID) *refShard {
	n := uint64(len(x.shards))
	return x.shards[uint64(id)%n]
}

func (x *indexRef) Len() int {
	n := 0
	for _, sh := range x.shards {
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

// Add inserts an image, locking only the entry's own shard. Re-adding an
// existing ID replaces its metadata but keeps old hash buckets pointing
// at it; a bucket whose newest posting is already the ID is skipped.
func (x *indexRef) Add(e *Entry) {
	if e == nil || e.Set == nil {
		return
	}
	e.prep = e.Set.Prepare()
	sh := x.shardFor(e.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.entries[e.ID] = e
	for t := range sh.tables {
		table := sh.tables[t]
		sel := x.bitSel[t]
		for _, d := range e.Set.Descriptors {
			key := hashKey(d, sel)
			bucket := table[key]
			// The same image often hashes many descriptors into one
			// bucket; store it once per bucket.
			if n := len(bucket); n > 0 && bucket[n-1] == e.ID {
				continue
			}
			table[key] = append(bucket, e.ID)
		}
	}
}

func (x *indexRef) Get(id ImageID) *Entry {
	sh := x.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.entries[id]
}

func (x *indexRef) QueryMax(set *features.BinarySet) (*Entry, float64) {
	res := x.QueryTopK(set, 1)
	if len(res) == 0 {
		return nil, 0
	}
	return x.Get(res[0].ID), res[0].Similarity
}

// votes collects this shard's LSH bucket hits for the query set.
func (sh *refShard) votes(set *features.BinarySet, bitSel [][]int) map[ImageID]int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v := make(map[ImageID]int)
	for t := range sh.tables {
		table := sh.tables[t]
		sel := bitSel[t]
		for _, d := range set.Descriptors {
			for _, id := range table[hashKey(d, sel)] {
				v[id]++
			}
		}
	}
	return v
}

func (x *indexRef) QueryCandidates(set *features.BinarySet, limit int) []Candidate {
	return refCandidatesAcross([]*indexRef{x}, set, limit)
}

// refCandidatesAcross collects votes from every stripe of every index,
// ranks them once by (votes desc, ID asc), truncates to limit, and
// scores the survivors exactly against their owning index.
func refCandidatesAcross(idxs []*indexRef, set *features.BinarySet, limit int) []Candidate {
	if set.Len() == 0 || limit <= 0 {
		return nil
	}
	type stripe struct {
		sh  *refShard
		src int32 // position of the owning index in idxs
	}
	nStripes := 0
	for _, x := range idxs {
		nStripes += len(x.shards)
	}
	stripes := make([]stripe, 0, nStripes)
	for i, x := range idxs {
		for _, sh := range x.shards {
			stripes = append(stripes, stripe{sh, int32(i)})
		}
	}
	perStripe := make([]map[ImageID]int, len(stripes))
	par.Do(len(stripes), func(s int) {
		perStripe[s] = stripes[s].sh.votes(set, idxs[stripes[s].src].bitSel)
	})
	// An image lives in exactly one stripe, so the per-stripe vote maps
	// are disjoint and concatenate into the global vote list.
	nCands := 0
	for _, v := range perStripe {
		nCands += len(v)
	}
	if nCands == 0 {
		return nil
	}
	type cand struct {
		id    ImageID
		votes int32
		src   int32
	}
	cands := make([]cand, 0, nCands)
	for s, v := range perStripe {
		for id, votes := range v {
			cands = append(cands, cand{id, int32(votes), stripes[s].src})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].votes != cands[j].votes {
			return cands[i].votes > cands[j].votes
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > limit {
		cands = cands[:limit]
	}
	out := make([]Candidate, 0, len(cands))
	prepQ := set.Prepare()
	for _, c := range cands {
		x := idxs[c.src]
		e := x.Get(c.id)
		if e == nil {
			continue
		}
		out = append(out, Candidate{
			ID:         e.ID,
			GroupID:    e.GroupID,
			Votes:      int(c.votes),
			Similarity: features.JaccardPrepared(prepQ, e.prep, x.cfg.HammingMax),
		})
	}
	return out
}

func (x *indexRef) QueryTopK(set *features.BinarySet, k int) []Result {
	if set.Len() == 0 || k <= 0 {
		return nil
	}
	limit := x.cfg.CandidateLimit
	if k > limit {
		limit = k
	}
	cands := x.QueryCandidates(set, limit)
	if len(cands) == 0 {
		return nil
	}
	results := make([]Result, 0, len(cands))
	for _, c := range cands {
		if c.Similarity <= 0 {
			continue
		}
		results = append(results, Result{ID: c.ID, GroupID: c.GroupID, Similarity: c.Similarity})
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Similarity != results[j].Similarity {
			return results[i].Similarity > results[j].Similarity
		}
		return results[i].ID < results[j].ID
	})
	if len(results) > k {
		results = results[:k]
	}
	return results
}

func (x *indexRef) QueryMaxBatch(sets []*features.BinarySet) []float64 {
	sims := make([]float64, len(sets))
	par.Do(len(sets), func(i int) {
		if sets[i] == nil {
			return
		}
		_, sims[i] = x.QueryMax(sets[i])
	})
	return sims
}
