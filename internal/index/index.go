// Package index implements the cloud-side similarity index BEES queries
// for cross-batch redundancy detection (CBRD): a multi-table bit-sampling
// LSH over 256-bit ORB descriptors generates candidates, which are then
// re-ranked with the exact Jaccard similarity of Equation 2.
//
// The index is lock-striped: entries and their hash buckets are spread
// over Config.Shards independent shards, each behind its own RWMutex, so
// a write (Add) locks 1/S of the index instead of all of it and queries
// fan out over the shards concurrently. Results are byte-identical to a
// single-shard index: an image lives in exactly one shard, so per-shard
// LSH votes merge losslessly before the global candidate ranking.
package index

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"bees/internal/features"
	"bees/internal/par"
)

// ImageID identifies an image stored in the index.
type ImageID int64

// Entry is one indexed image: its descriptor set plus the metadata the
// evaluation uses (dataset group for precision, geotag for coverage).
type Entry struct {
	ID      ImageID
	Set     *features.BinarySet
	GroupID int64
	Lat     float64
	Lon     float64

	// prep is the matching-accelerated form of Set, built once on Add so
	// every query re-ranks against prepared tables instead of re-scanning
	// the raw descriptors.
	prep *features.PreparedBinarySet
}

// prepared returns the entry's accelerated set, building it on the spot
// for entries that never passed through Add (hand-built in tests).
func (e *Entry) prepared() *features.PreparedBinarySet {
	if e.prep != nil {
		return e.prep
	}
	return e.Set.Prepare()
}

// Result is one ranked query answer.
type Result struct {
	ID         ImageID
	GroupID    int64
	Similarity float64
}

// Config controls the LSH parameters.
type Config struct {
	// Tables is the number of independent hash tables.
	Tables int
	// BitsPerKey is the number of sampled descriptor bits per key (≤ 32).
	BitsPerKey int
	// HammingMax is the exact-match radius used for re-ranking.
	HammingMax int
	// CandidateLimit caps the number of images re-ranked exactly.
	CandidateLimit int
	// Seed drives the bit sampling.
	Seed int64
	// Shards is the number of lock stripes the index is split into.
	// Zero or negative selects DefaultShards. Shard assignment is a pure
	// function of the image ID, so results do not depend on the count.
	Shards int
}

// DefaultShards is the lock-stripe count used when Config.Shards is not
// set: enough stripes that concurrent uploads rarely contend, few enough
// that per-query fan-out stays cheap.
const DefaultShards = 8

// DefaultConfig returns LSH parameters tuned for 256-bit descriptors with
// a match radius around DefaultHammingMax: similar descriptors collide in
// at least one table with high probability, random ones almost never.
func DefaultConfig() Config {
	return Config{
		Tables:         4,
		BitsPerKey:     16,
		HammingMax:     features.DefaultHammingMax,
		CandidateLimit: 24,
		Seed:           0x1d5,
		Shards:         DefaultShards,
	}
}

// shard is one lock stripe: a slice of the entry map plus the matching
// slice of every hash table.
type shard struct {
	mu      sync.RWMutex
	entries map[ImageID]*Entry
	tables  []map[uint32][]ImageID
}

// Index is a thread-safe similarity index over descriptor sets.
type Index struct {
	cfg    Config
	shards []*shard
	bitSel [][]int // read-only after New
}

// New creates an empty index with the given configuration.
func New(cfg Config) *Index {
	if cfg.Tables <= 0 || cfg.BitsPerKey <= 0 || cfg.BitsPerKey > 32 {
		panic(fmt.Sprintf("index: invalid config %+v", cfg))
	}
	if cfg.CandidateLimit <= 0 {
		cfg.CandidateLimit = 24
	}
	if cfg.HammingMax <= 0 {
		cfg.HammingMax = features.DefaultHammingMax
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	idx := &Index{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		bitSel: make([][]int, cfg.Tables),
	}
	for s := range idx.shards {
		sh := &shard{
			entries: make(map[ImageID]*Entry),
			tables:  make([]map[uint32][]ImageID, cfg.Tables),
		}
		for t := range sh.tables {
			sh.tables[t] = make(map[uint32][]ImageID)
		}
		idx.shards[s] = sh
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for t := 0; t < cfg.Tables; t++ {
		sel := rng.Perm(256)[:cfg.BitsPerKey]
		sort.Ints(sel)
		idx.bitSel[t] = sel
	}
	return idx
}

// shardFor maps an image ID to its owning stripe.
func (x *Index) shardFor(id ImageID) *shard {
	n := uint64(len(x.shards))
	return x.shards[uint64(id)%n]
}

// Len returns the number of indexed images.
func (x *Index) Len() int {
	n := 0
	for _, sh := range x.shards {
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

// Add inserts an image, locking only the entry's own shard — concurrent
// uploads to different shards do not serialize. Re-adding an existing ID
// replaces its metadata but keeps old hash buckets pointing at it, so
// callers should use fresh IDs (the server layer guarantees this).
func (x *Index) Add(e *Entry) {
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

// Get returns the entry for id, or nil.
func (x *Index) Get(id ImageID) *Entry {
	sh := x.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.entries[id]
}

// QueryMax returns the indexed image with the highest Equation-2
// similarity to the query set, or (nil, 0) when the index is empty or no
// candidate shares a hash bucket.
func (x *Index) QueryMax(set *features.BinarySet) (*Entry, float64) {
	res := x.QueryTopK(set, 1)
	if len(res) == 0 {
		return nil, 0
	}
	return x.Get(res[0].ID), res[0].Similarity
}

// votes collects this shard's LSH bucket hits for the query set. Holding
// only the shard's read lock, it is safe to run one goroutine per shard.
func (sh *shard) votes(set *features.BinarySet, bitSel [][]int) map[ImageID]int {
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

// Candidate is one LSH candidate surviving the vote ranking: its merged
// vote count across the hash tables plus the exact Equation-2 similarity
// (which may be 0 — a hash collision with no surviving exact match).
// Candidates are what a cluster router merges across index partitions:
// votes depend only on the query, the entry, and the seeded bit
// selectors, so per-partition top-limit candidate lists re-rank into the
// exact global candidate order (see internal/cluster).
type Candidate struct {
	ID         ImageID
	GroupID    int64
	Votes      int
	Similarity float64
}

// QueryCandidates returns the top-limit LSH candidates for the query
// set, ranked by (votes desc, ID asc), each carrying its exact
// similarity. Unlike QueryTopK it keeps zero-similarity candidates: a
// partial (per-partition) candidate list must preserve the vote ranking
// exactly, and dropping sim-0 entries before the global merge would
// shift which candidates survive the global limit.
func (x *Index) QueryCandidates(set *features.BinarySet, limit int) []Candidate {
	return CandidatesAcross([]*Index{x}, set, limit)
}

// CandidatesAcross is QueryCandidates over the union of several indexes
// that partition one ID space and share LSH parameters (a cluster
// node's shard indexes): votes are collected from every stripe of every
// index, ranked once by (votes desc, ID asc) and truncated to limit,
// and only the survivors are scored exactly, each against its owning
// index. The result equals QueryCandidates on one index holding all the
// entries, at a cost of at most limit exact similarities however many
// indexes there are.
func CandidatesAcross(idxs []*Index, set *features.BinarySet, limit int) []Candidate {
	if set.Len() == 0 || limit <= 0 {
		return nil
	}
	type stripe struct {
		sh  *shard
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
			Similarity: features.JaccardPrepared(prepQ, e.prepared(), x.cfg.HammingMax),
		})
	}
	return out
}

// QueryTopK returns the k most similar indexed images, ranked by exact
// Jaccard similarity over the LSH candidate set. Candidate generation
// fans out over the shards concurrently; because each image lives in
// exactly one shard, merging the per-shard votes reproduces the global
// vote counts, so the ranking is identical to a single-shard index.
func (x *Index) QueryTopK(set *features.BinarySet, k int) []Result {
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
			// A hash collision with no surviving exact match is not a
			// retrieval result.
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

// QueryMaxBatch answers the CBRD similarity query for a whole batch of
// sets at once, running the per-set queries across all host cores. The
// result is one maximum similarity per set, in order.
func (x *Index) QueryMaxBatch(sets []*features.BinarySet) []float64 {
	sims := make([]float64, len(sets))
	par.Do(len(sets), func(i int) {
		if sets[i] == nil {
			return
		}
		_, sims[i] = x.QueryMax(sets[i])
	})
	return sims
}

// sortedIDs returns every indexed ID in ascending order.
func (x *Index) sortedIDs() []ImageID {
	ids := make([]ImageID, 0, x.Len())
	for _, sh := range x.shards {
		sh.mu.RLock()
		for id := range sh.entries {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ExhaustiveMax scans every indexed image with the exact similarity and
// returns the best match. It is the brute-force baseline the ablation
// bench compares the LSH path against.
func (x *Index) ExhaustiveMax(set *features.BinarySet) (*Entry, float64) {
	var best *Entry
	bestSim := 0.0
	prepQ := set.Prepare()
	for _, id := range x.sortedIDs() {
		e := x.Get(id)
		if e == nil {
			continue
		}
		if sim := features.JaccardPrepared(prepQ, e.prepared(), x.cfg.HammingMax); sim > bestSim {
			bestSim, best = sim, e
		}
	}
	return best, bestSim
}

// hashKey samples the selected bits of d into a bucket key.
func hashKey(d features.Descriptor, sel []int) uint32 {
	var key uint32
	for i, b := range sel {
		key |= uint32(d.Bit(b)) << uint(i)
	}
	return key
}

// ForEach calls fn for every entry in ascending ID order. The entries
// are shared; callers must not mutate them.
func (x *Index) ForEach(fn func(*Entry)) {
	for _, id := range x.sortedIDs() {
		if e := x.Get(id); e != nil {
			fn(e)
		}
	}
}
