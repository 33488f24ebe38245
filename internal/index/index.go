// Package index implements the cloud-side similarity index BEES queries
// for cross-batch redundancy detection (CBRD): a multi-table bit-sampling
// LSH over 256-bit ORB descriptors generates candidates, which are then
// re-ranked with the exact Jaccard similarity of Equation 2.
//
// The index is one flat structure behind one RWMutex. Each table has a
// dense bucket directory of 2^BitsPerKey list heads, and every table's
// postings share one arena of (slot, next) cells that grows in
// fixed-size chunks, so growth never copies. Entries sit in a
// slot-ordered slice; a query hashes its set once, sorts the keys, and
// walks each distinct bucket once, adding the key's multiplicity to a
// dense per-slot vote array. AddBatch links a whole batch in one
// write-lock section, so a query sees all of a commit's images or none.
//
// Linking scatters a list over every image's block of cells, so once the
// posting count has doubled since the last time, AddBatch re-lays the
// arena under the write lock: each list, in list order, becomes one
// contiguous run, the runs in ascending bucket order, and a query's
// sorted keys then read memory forward. The lists keep their slots and
// order, so answers are unchanged. The doubling bounds the copying at
// ≤ 1 extra copy per posting, amortized, but each copy stalls writers
// and readers alike. On a 2-CPU box it costs ≈ 16 ns a posting when the
// arena is fully scattered: ≈ 6 ms at 384 images (374k postings), and at
// that rate ≈ 160 ms at 10k images and ≈ 1.6 s at 100k. Sealed,
// background-merged segments would remove that stall.
//
// QueryMax, the CBRD query, needs one maximum rather than every
// candidate's similarity: it scores the vote-ranked candidates against
// the best so far with an integer match threshold, so the matcher can
// stop a candidate as soon as it cannot win, and still returns
// QueryTopK(set, 1)'s entry and float bit for bit.
package index

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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

	// prep is Set wrapped for the matching kernel (it reads the
	// descriptors in place), built once on Add so every re-rank reuses it.
	prep *features.PreparedBinarySet
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
	// BitsPerKey is the number of sampled descriptor bits per key
	// (≤ 20: each table's bucket directory is dense, 4·2^BitsPerKey bytes).
	BitsPerKey int
	// HammingMax is the exact-match radius used for re-ranking.
	HammingMax int
	// CandidateLimit caps the number of images re-ranked exactly.
	CandidateLimit int
}

// lshSeed drives the bit sampling. It is one constant, so every index
// with the same Tables and BitsPerKey samples the same bits, and a
// cluster node's shard indexes vote on one hash of a query.
const lshSeed = 0x1d5

// DefaultConfig returns LSH parameters tuned for 256-bit descriptors with
// a match radius around DefaultHammingMax: similar descriptors collide in
// at least one table with high probability, random ones almost never.
func DefaultConfig() Config {
	return Config{
		Tables:         4,
		BitsPerKey:     16,
		HammingMax:     features.DefaultHammingMax,
		CandidateLimit: 24,
	}
}

// posting is one arena cell: an entry slot on one bucket's list and the
// next older posting (0 ends it). int32 links cap the arena at 2^31 cells.
type posting struct{ slot, next int32 }

// chunkBits sizes an arena chunk: 2^14 postings, 128 KiB. It is also the
// relayout floor: an arena of fewer postings is never re-laid.
const chunkBits = 14

// Index is a thread-safe similarity index over descriptor sets.
type Index struct {
	cfg    Config
	bitSel [][]int // read-only after New

	mu      sync.RWMutex
	entries []*Entry          // by slot, in first-Add order
	slots   map[ImageID]int32 // ID → slot
	// heads holds every table's directory back to back: bucket k of
	// table t heads the list at t<<BitsPerKey | k. Posting p lives at
	// arena[p>>chunkBits][p&(1<<chunkBits-1)]; p = 0 is never used, so a
	// zero head is an empty bucket.
	heads []int32
	arena [][]posting
	used  int32 // next free posting
	laid  int32 // postings at the last relayout
}

// New creates an empty index with the given configuration.
func New(cfg Config) *Index {
	if cfg.Tables <= 0 || cfg.BitsPerKey <= 0 || cfg.BitsPerKey > 20 {
		panic(fmt.Sprintf("index: invalid config %+v", cfg))
	}
	if cfg.CandidateLimit <= 0 {
		cfg.CandidateLimit = 24
	}
	if cfg.HammingMax <= 0 {
		cfg.HammingMax = features.DefaultHammingMax
	}
	idx := &Index{
		cfg:    cfg,
		bitSel: make([][]int, cfg.Tables),
		slots:  make(map[ImageID]int32),
		heads:  make([]int32, cfg.Tables<<cfg.BitsPerKey),
		used:   1,
	}
	rng := rand.New(rand.NewSource(lshSeed))
	for t := 0; t < cfg.Tables; t++ {
		sel := rng.Perm(256)[:cfg.BitsPerKey]
		sort.Ints(sel)
		idx.bitSel[t] = sel
	}
	return idx
}

// at returns posting p's arena cell.
func (x *Index) at(p int32) *posting {
	return &x.arena[p>>chunkBits][p&(1<<chunkBits-1)]
}

// Len returns the number of indexed images.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.entries)
}

// Add inserts an image: AddBatch of one entry. Re-adding an existing ID
// keeps its slot and replaces its metadata but keeps old hash buckets
// pointing at it, so callers should use fresh IDs (the server layer
// guarantees this).
func (x *Index) Add(e *Entry) { x.AddBatch([]*Entry{e}) }

// AddBatch inserts entries as one unit: their sets are prepared and
// hashed in parallel outside the lock, then every posting is linked in
// one write-lock section, so a concurrent query sees all of the batch or
// none of it. The result equals Adding the entries one by one in order;
// nil entries and entries without a set are skipped. The entries must
// be distinct values. An insert that doubles the posting count since the
// last relayout re-lays the arena before the lock is released.
func (x *Index) AddBatch(entries []*Entry) {
	buckets := make([][]uint32, len(entries))
	par.Do(len(entries), func(i int) {
		if e := entries[i]; e != nil && e.Set != nil {
			buckets[i] = x.prepare(e)
		}
	})
	x.mu.Lock()
	defer x.mu.Unlock()
	for i, e := range entries {
		if e != nil && e.Set != nil {
			x.link(e, buckets[i])
		}
	}
	if n := x.used - 1; n >= 1<<chunkBits && n/2 >= x.laid {
		x.relayout()
	}
}

// prepare is the lock-free half of an insert: it prepares e's set for
// the matcher and returns e's distinct buckets in ascending order. An image often
// hashes many descriptors into one bucket; it is stored there once.
func (x *Index) prepare(e *Entry) []uint32 {
	e.prep = e.Set.Prepare()
	b := x.hash(e.Set, make([]uint32, 0, x.cfg.Tables*e.Set.Len()))
	slices.Sort(b)
	return slices.Compact(b)
}

// link gives e its slot and pushes one posting per bucket. A re-added ID
// skips a bucket whose newest posting is already its own, as a single
// bucket list appended in Add order would. Callers hold x.mu for writing.
func (x *Index) link(e *Entry, buckets []uint32) {
	slot, readd := x.slots[e.ID]
	if readd {
		x.entries[slot] = e
	} else {
		slot = int32(len(x.entries))
		x.slots[e.ID] = slot
		x.entries = append(x.entries, e)
	}
	for _, b := range buckets {
		head := x.heads[b]
		if readd && head != 0 && x.at(head).slot == slot {
			continue
		}
		if int(x.used>>chunkBits) == len(x.arena) {
			x.arena = append(x.arena, make([]posting, 1<<chunkBits))
		}
		*x.at(x.used) = posting{slot: slot, next: head}
		x.heads[b] = x.used
		x.used++
	}
}

// relayout copies every bucket's list, in list order, into a fresh arena
// of as many chunks: the buckets in ascending order, each list one
// contiguous run with next = p+1, its head at the run's start. Every
// posting is reachable from exactly one head, so the runs fill cells 1
// to used-1. Callers hold x.mu for writing.
func (x *Index) relayout() {
	old := x.arena
	x.arena = make([][]posting, len(old))
	for i := range x.arena {
		x.arena[i] = make([]posting, 1<<chunkBits)
	}
	q := int32(1)
	for b, head := range x.heads {
		if head == 0 {
			continue
		}
		x.heads[b] = q
		for p := head; p != 0; q++ {
			c := old[p>>chunkBits][p&(1<<chunkBits-1)]
			*x.at(q) = posting{slot: c.slot, next: q + 1}
			p = c.next
		}
		x.at(q - 1).next = 0
	}
	x.laid = x.used - 1
}

// QueryMax returns the indexed image with the highest Equation-2
// similarity to the query set, or (nil, 0) when the index is empty or no
// candidate shares a hash bucket. It answers exactly as QueryTopK(set, 1)
// — the same entry, the same float bits — but scores only against the
// best so far: the top CandidateLimit candidates are visited in
// (votes desc, ID asc) order, and each is asked only whether its match
// count m beats the incumbent's bm/bu (matches over union). With a and b
// the two set sizes, m/(a+b−m) > bm/bu exactly when
// m > bm·(a+b)/(bm+bu), and it ties exactly when m equals that ratio, so
// the threshold is an integer and a candidate with a lower ID than the
// incumbent, which wins a tie, needs one match less when the ratio is
// whole. Two different ratios with unions below 2^26 differ by more than
// float64 rounding can hide, so this integer order is QueryTopK's float
// order.
func (x *Index) QueryMax(set *features.BinarySet) (*Entry, float64) {
	if set.Len() == 0 {
		return nil, 0
	}
	s := scratchPool.Get().(*scratch)
	defer s.release()
	s.hashSet(x, set)
	x.mu.RLock()
	x.vote(s, 0)
	x.mu.RUnlock()
	var best *Entry
	bm, bu := 0, 1
	var prepQ *features.PreparedBinarySet
	a := set.Len()
	for _, c := range s.rank(x.cfg.CandidateLimit) {
		if prepQ == nil {
			prepQ = set.Prepare()
		}
		num, den := bm*(a+c.e.Set.Len()), bm+bu
		need := num/den + 1
		if num%den == 0 && best != nil && c.e.ID < best.ID {
			need--
		}
		if m := features.MatchPreparedAtLeast(prepQ, c.e.prep, x.cfg.HammingMax, need); m >= need {
			best, bm, bu = c.e, m, a+c.e.Set.Len()-m
		}
	}
	if best == nil {
		return nil, 0
	}
	return best, float64(bm) / float64(bu)
}

// Candidate is one LSH candidate surviving the vote ranking: its vote
// count across the hash tables plus the exact Equation-2 similarity
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

// cand is one voted entry and the position of its index in a query.
type cand struct {
	e     *Entry
	votes int32
	src   int32
}

// scratch is one query's reusable working set: the set's distinct
// buckets in ascending order with how many of its keys fell in each, the
// per-slot vote counts (all zero between uses), the slots voted for, and
// the gathered candidates.
type scratch struct {
	keys    []uint32
	mults   []int32
	votes   []int32
	touched []int32
	cands   []cand
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// hashSet fills s.keys and s.mults with set's buckets under x's LSH
// parameters. A set often hashes many descriptors into one bucket; voting
// walks that bucket once and adds the multiplicity, which counts exactly
// the votes of walking it once per key.
func (s *scratch) hashSet(x *Index, set *features.BinarySet) {
	keys := x.hash(set, s.keys[:0])
	slices.Sort(keys)
	s.mults = s.mults[:0]
	n := 0
	for i, k := range keys {
		if i > 0 && k == keys[n-1] {
			s.mults[n-1]++
			continue
		}
		keys[n] = k
		s.mults = append(s.mults, 1)
		n++
	}
	s.keys = keys[:n]
}

// rank orders the gathered candidates by (votes desc, ID asc) and returns
// the first limit of them.
func (s *scratch) rank(limit int) []cand {
	slices.SortFunc(s.cands, func(a, b cand) int {
		return cmp.Or(cmp.Compare(b.votes, a.votes), cmp.Compare(a.e.ID, b.e.ID))
	})
	return s.cands[:min(limit, len(s.cands))]
}

// release returns s to the pool, dropping the entry pointers the pool
// would otherwise keep alive.
func (s *scratch) release() {
	clear(s.cands)
	s.cands = s.cands[:0]
	scratchPool.Put(s)
}

// CandidatesAcross is QueryCandidates over the union of several indexes
// that partition one ID space (a cluster node's shard indexes). The set
// is hashed once, so every index must share Tables and BitsPerKey; a
// mismatch panics rather than return wrong votes. Votes are ranked once
// by (votes desc, ID asc) and truncated to limit, and only the survivors
// are scored exactly, each against its owning index. The result equals
// QueryCandidates on one index holding all the entries, at a cost of at
// most limit exact similarities however many indexes there are.
func CandidatesAcross(idxs []*Index, set *features.BinarySet, limit int) []Candidate {
	if len(idxs) == 0 || set.Len() == 0 || limit <= 0 {
		return nil
	}
	lsh := idxs[0].cfg
	for _, x := range idxs[1:] {
		if c := x.cfg; c.Tables != lsh.Tables || c.BitsPerKey != lsh.BitsPerKey {
			panic(fmt.Sprintf("index: CandidatesAcross over mismatched LSH parameters %+v and %+v", lsh, c))
		}
	}
	s := scratchPool.Get().(*scratch)
	defer s.release()
	s.hashSet(idxs[0], set)
	for i, x := range idxs {
		x.mu.RLock()
		x.vote(s, int32(i))
		x.mu.RUnlock()
	}
	top := s.rank(limit)
	if len(top) == 0 {
		return nil
	}
	out := make([]Candidate, len(top))
	prepQ := set.Prepare()
	for i, c := range top {
		sim := features.JaccardPrepared(prepQ, c.e.prep, idxs[c.src].cfg.HammingMax)
		out[i] = Candidate{ID: c.e.ID, GroupID: c.e.GroupID, Votes: int(c.votes), Similarity: sim}
	}
	return out
}

// vote counts x's bucket hits for s.keys, each bucket walked once and
// weighted by its multiplicity, and appends one candidate per slot voted
// for, leaving s.votes zero again. Callers hold x.mu for reading.
func (x *Index) vote(s *scratch, src int32) {
	if len(s.votes) < len(x.entries) {
		s.votes = make([]int32, 2*len(x.entries))
	}
	for i, b := range s.keys {
		mult := s.mults[i]
		for p := x.heads[b]; p != 0; {
			c := x.at(p)
			if s.votes[c.slot] == 0 {
				s.touched = append(s.touched, c.slot)
			}
			s.votes[c.slot] += mult
			p = c.next
		}
	}
	for _, slot := range s.touched {
		s.cands = append(s.cands, cand{x.entries[slot], s.votes[slot], src})
		s.votes[slot] = 0
	}
	s.touched = s.touched[:0]
}

// QueryTopK returns the k most similar indexed images, ranked by exact
// Jaccard similarity over the LSH candidate set.
func (x *Index) QueryTopK(set *features.BinarySet, k int) []Result {
	if set.Len() == 0 || k <= 0 {
		return nil
	}
	cands := x.QueryCandidates(set, max(x.cfg.CandidateLimit, k))
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
	slices.SortFunc(results, func(a, b Result) int {
		return cmp.Or(cmp.Compare(b.Similarity, a.Similarity), cmp.Compare(a.ID, b.ID))
	})
	if len(results) > k {
		results = results[:k]
	}
	return results
}

// QueryMaxBatch answers the CBRD similarity query for a whole batch of
// sets at once, running the per-set max-only QueryMax across all host
// cores. The result is one maximum similarity per set, in order.
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

// ExhaustiveMax scans every indexed image with the exact similarity and
// returns the best match. It is the brute-force baseline the ablation
// bench compares the LSH path against.
func (x *Index) ExhaustiveMax(set *features.BinarySet) (*Entry, float64) {
	var best *Entry
	bestSim := 0.0
	prepQ := set.Prepare()
	x.ForEach(func(e *Entry) {
		if sim := features.JaccardPrepared(prepQ, e.prep, x.cfg.HammingMax); sim > bestSim {
			bestSim, best = sim, e
		}
	})
	return best, bestSim
}

// hash appends the set's bucket numbers to dst, table-major: descriptor
// j's bucket in table t is t<<BitsPerKey | its key in that table.
func (x *Index) hash(set *features.BinarySet, dst []uint32) []uint32 {
	for t, sel := range x.bitSel {
		base := uint32(t) << uint(x.cfg.BitsPerKey)
		for _, d := range set.Descriptors {
			dst = append(dst, base|hashKey(d, sel))
		}
	}
	return dst
}

// hashKey samples the selected bits of d into a bucket key.
func hashKey(d features.Descriptor, sel []int) uint32 {
	var key uint32
	for i, b := range sel {
		key |= uint32(d.Bit(b)) << uint(i)
	}
	return key
}

// ForEach calls fn for every entry in ascending ID order, outside the
// lock. The entries are shared; callers must not mutate them.
func (x *Index) ForEach(fn func(*Entry)) {
	x.mu.RLock()
	es := slices.Clone(x.entries)
	x.mu.RUnlock()
	slices.SortFunc(es, func(a, b *Entry) int { return cmp.Compare(a.ID, b.ID) })
	for _, e := range es {
		fn(e)
	}
}
