package features

// Exact sub-linear binary matching. The brute-force matcher in descset.go
// compares every query descriptor against every candidate — O(n·m) full
// 256-bit Hamming distances per direction, twice per set pair for the
// cross-check. Every similarity the system computes (IBRD's O(batch²)
// graph, CBRD index re-ranking, the baselines, the harness figures)
// bottoms out there, so this file provides a faster kernel that is
// *bit-identical* to the brute force: same match counts, same chosen
// indices, same tie-breaks. descset_diff_test.go pins that equivalence.
//
// Three exact accelerations compose:
//
//  1. Multi-index hashing (Norouzi et al., "Fast Search in Hamming Space
//     with Multi-Index Hashing"): the 256 bits are partitioned into
//     mihBands = 32 disjoint 8-bit bands. By pigeonhole, two descriptors
//     within Hamming distance r < 32 agree *exactly* on at least one
//     band — r differing bits can touch at most r of the 32 bands. A
//     per-band table from band value to descriptor indices therefore
//     yields a candidate set that provably contains every descriptor
//     within the radius. Bands are *scattered* (band b holds bits
//     {b, b+32, …, b+224}) to decorrelate neighboring BRIEF tests, and
//     the kernel probes the tables per query only when the probed
//     buckets are sparse: descriptors from one image cluster heavily
//     (near-duplicate patches across pyramid levels), and when the
//     buckets hold a large fraction of the set a linear filter scan is
//     cheaper than chasing them. The 32 bucket sizes are read up front,
//     so the choice costs almost nothing and either path is exact.
//  2. Word-filtered scanning: candidates are first screened with the
//     popcount-difference lower bound |pop(a)−pop(b)| ≤ H(a,b) and a
//     columnar pass over the first 64-bit word — H(a,b) ≥ H(a₀,b₀), so
//     any descriptor whose first-word distance exceeds the bound is
//     rejected at one XOR+popcount. Survivors finish with an early-exit
//     word-wise Hamming against the shrinking best-so-far bound.
//  3. Witness-seeded cross-check: MatchPrepared only needs the reverse
//     nearest neighbor of descriptors that won a forward match, and the
//     forward pass already supplies a witness (distance, index) pair
//     that upper-bounds the reverse search. Reverse queries start from
//     that bound, so the popcount and first-word filters reject almost
//     everything immediately; unmatched descriptors are never reverse-
//     searched at all. A caller that only asks whether the count reaches
//     a threshold (MatchPreparedAtLeast) also stops the forward pass
//     once the threshold is out of reach, and skips the reverse pass
//     when too few descriptors won a forward match.

import "math/bits"

const (
	// mihBands is the number of disjoint bands the 256-bit descriptor is
	// split into; the banded path is exact for radii < mihBands.
	mihBands = 32
	// mihBuckets is the number of values an 8-bit band can take.
	mihBuckets = 256
	// bandedMaxProbe caps how large the probed buckets may be, as a
	// fraction denominator of the set size, before the kernel prefers
	// the filter scan for a query: uniform-ish descriptor populations
	// probe ~n·32/256 = n/8 entries, comfortably under n/4, while the
	// clustered sets real images produce blow well past it.
	bandedMaxProbe = 4
)

// PreparedBinarySet is a BinarySet indexed for fast exact matching:
// per-descriptor popcounts, a column-major copy of the descriptor words,
// per-descriptor scattered band values, and CSR band tables mapping every
// (band, value) pair to the ascending list of descriptors carrying that
// value. Build it once per set (Prepare) and reuse it across all pairwise
// comparisons; it is immutable and safe for concurrent readers.
type PreparedBinarySet struct {
	// Set is the underlying descriptor set. It must not be mutated after
	// Prepare.
	Set *BinarySet
	pop []uint16 // per-descriptor popcount
	// w0..w3 are the descriptor words transposed to column-major order,
	// so the first-word filter streams sequentially through w0.
	w0, w1, w2, w3 []uint64
	// bands[j*mihBands+b] is descriptor j's value in scattered band b,
	// precomputed so probes on either side of a match are table reads.
	bands []uint8
	// start/ids form a CSR layout: bucket (b, v) holds
	// ids[start[b*mihBuckets+v]:start[b*mihBuckets+v+1]], the indices of
	// every descriptor whose band b value equals v, in ascending order.
	start []int32 // len mihBands*mihBuckets+1
	ids   []int32 // len mihBands*Len()
	// probeMass is Σ n² over all band buckets: the expected number of
	// bucket entries a query drawn from this set's own distribution
	// probes, times Len(). Computed once so the banded-vs-scan choice is
	// a single comparison at query time.
	probeMass int64
}

// scatterBands writes d's 32 scattered band values into out: band b is
// bit b of each of the eight 32-bit half-words, so the bands partition
// the descriptor while mixing distant BRIEF tests into each band.
//
// Extracting bit b of eight half-words for all 32 bands is an 8×32
// bit-matrix transpose. It runs in four 8×8 blocks: gather byte g of
// each half-word into one 64-bit block, transpose it with the
// three-step SWAR exchange (Hacker's Delight §7-3), and store the
// eight resulting band values at once. scatterBandsRef is the
// plainly-readable form this must stay identical to.
func scatterBands(d *Descriptor, out []uint8) {
	_ = out[mihBands-1]
	d0, d1, d2, d3 := d[0], d[1], d[2], d[3]
	for g := 0; g < 4; g++ {
		s := uint(8 * g)
		// Block g: byte k holds byte g of half-word k, so bit (k, r) is
		// bit 8g+r of half-word k.
		x := (d0>>s)&0xFF | ((d0>>(s+32))&0xFF)<<8 |
			((d1>>s)&0xFF)<<16 | ((d1>>(s+32))&0xFF)<<24 |
			((d2>>s)&0xFF)<<32 | ((d2>>(s+32))&0xFF)<<40 |
			((d3>>s)&0xFF)<<48 | ((d3>>(s+32))&0xFF)<<56
		t := (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
		x ^= t ^ (t << 7)
		t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
		x ^= t ^ (t << 14)
		t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
		x ^= t ^ (t << 28)
		// Byte r of the transposed block is band 8g+r's value.
		out[8*g+0] = uint8(x)
		out[8*g+1] = uint8(x >> 8)
		out[8*g+2] = uint8(x >> 16)
		out[8*g+3] = uint8(x >> 24)
		out[8*g+4] = uint8(x >> 32)
		out[8*g+5] = uint8(x >> 40)
		out[8*g+6] = uint8(x >> 48)
		out[8*g+7] = uint8(x >> 56)
	}
}

// Prepare builds the matching tables for s. Nil and empty sets prepare to
// an empty (but usable) PreparedBinarySet.
func (s *BinarySet) Prepare() *PreparedBinarySet {
	p := &PreparedBinarySet{Set: s}
	n := s.Len()
	if n == 0 {
		return p
	}
	p.pop = make([]uint16, n)
	p.w0 = make([]uint64, n)
	p.w1 = make([]uint64, n)
	p.w2 = make([]uint64, n)
	p.w3 = make([]uint64, n)
	p.bands = make([]uint8, n*mihBands)
	p.start = make([]int32, mihBands*mihBuckets+1)
	p.ids = make([]int32, mihBands*n)
	// Counting sort per bucket: count into the *next* slot, prefix-sum,
	// then place. Descriptor order is preserved, so every bucket lists
	// its indices ascending — the order the tie rule depends on.
	for j := range s.Descriptors {
		d := &s.Descriptors[j]
		p.pop[j] = uint16(popcount256(d))
		p.w0[j], p.w1[j], p.w2[j], p.w3[j] = d[0], d[1], d[2], d[3]
		row := p.bands[j*mihBands : (j+1)*mihBands]
		scatterBands(d, row)
		for b, v := range row {
			p.start[b*mihBuckets+int(v)+1]++
		}
	}
	// Bucket counts sit at start[1..]; square them for probeMass in the
	// same pass that turns them into prefix sums.
	for i := 1; i < len(p.start); i++ {
		sz := int64(p.start[i])
		p.probeMass += sz * sz
		p.start[i] += p.start[i-1]
	}
	// Place using start itself as the write cursors: after the fill,
	// start[k] has advanced to the old start[k+1], so one overlapping
	// shift restores the CSR offsets without a scratch copy.
	for j := 0; j < n; j++ {
		row := p.bands[j*mihBands : (j+1)*mihBands]
		for b, v := range row {
			k := b*mihBuckets + int(v)
			p.ids[p.start[k]] = int32(j)
			p.start[k]++
		}
	}
	copy(p.start[1:], p.start[:mihBands*mihBuckets])
	p.start[0] = 0
	return p
}

// Len returns the number of descriptors in the underlying set.
func (p *PreparedBinarySet) Len() int {
	if p == nil {
		return 0
	}
	return p.Set.Len()
}

// popcount256 returns the number of set bits in the descriptor.
func popcount256(d *Descriptor) int {
	return bits.OnesCount64(d[0]) + bits.OnesCount64(d[1]) +
		bits.OnesCount64(d[2]) + bits.OnesCount64(d[3])
}

// nearestOne finds the nearest neighbor of q in p under the reference tie
// rule — strictly nearer wins, equal distance goes to the lower index —
// starting from an incumbent (seedDist, seedIdx). Unseeded searches pass
// (hammingMax+1, -1); the cross-check passes a forward witness, which
// tightens every filter below.
func (p *PreparedBinarySet) nearestOne(q *Descriptor, qbands []uint8, pq int,
	hammingMax, seedDist, seedIdx int) int {
	bestDist, bestIdx := seedDist, seedIdx
	if qbands != nil {
		// MIH candidate generation: every descriptor within
		// min(hammingMax, mihBands-1) of q shares at least one scattered
		// band value with it (pigeonhole), so the probed buckets cover
		// all possible winners. Candidates arrive in band order, not
		// index order, hence the explicit tie rule.
		for b, v := range qbands {
			k := b*mihBuckets + int(v)
			for _, jj := range p.ids[p.start[k]:p.start[k+1]] {
				j := int(jj)
				if j == bestIdx {
					continue
				}
				// Popcount lower bound: H(q, d) ≥ |pop(q) − pop(d)|. A
				// gap beyond bestDist can neither improve nor tie (ties
				// need equality, preserved by the strict >).
				if diff := int(p.pop[j]) - pq; diff > bestDist || -diff > bestDist {
					continue
				}
				h := hammingAtMost(q, p, j, bestDist)
				if h > bestDist {
					continue
				}
				if h < bestDist || (h == bestDist && j < bestIdx) {
					bestDist, bestIdx = h, j
				}
			}
		}
		return bestIdx
	}
	// Filter scan: a sequential branch-free XOR+popcount over the first
	// two words rejects everything whose half-descriptor distance already
	// exceeds the best bound so far (H ≥ H of any word subset). Real
	// BRIEF words are correlated enough that a single word passes tens of
	// percent of candidates — branching there mispredicts constantly —
	// while two words reject >99%. The bound shrinks as better neighbors
	// turn up; survivors finish with a word-wise early exit.
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	w0, w1 := p.w0, p.w1
	w2, w3 := p.w2[:len(w0)], p.w3[:len(w0)]
	if len(w1) != len(w0) {
		return bestIdx // unreachable; helps bounds-check elimination
	}
	for j, w := range w0 {
		h := bits.OnesCount64(q0^w) + bits.OnesCount64(q1^w1[j])
		if h > bestDist {
			continue
		}
		h += bits.OnesCount64(q2 ^ w2[j])
		if h > bestDist {
			continue
		}
		h += bits.OnesCount64(q3 ^ w3[j])
		if h > bestDist {
			continue
		}
		if h < bestDist || (h == bestDist && j < bestIdx) {
			bestDist, bestIdx = h, j
			if bestDist == 0 {
				// An exact duplicate cannot be beaten, and the ascending
				// scan guarantees no lower-index tie remains ahead.
				break
			}
		}
	}
	return bestIdx
}

// bandedWorthwhile reports whether probing the band tables beats the
// filter scan for queries against this set: probeMass/Len() estimates the
// bucket entries a typical query probes, and the banded path runs only
// when that volume is well under the set size (uniform-ish populations
// probe ~Len()/8 entries; the clustered sets real images produce blow
// well past the cut). Either path returns the identical nearest neighbor;
// this is a cost choice, not a semantic one.
func (p *PreparedBinarySet) bandedWorthwhile() bool {
	n := int64(p.Len())
	return p.probeMass*bandedMaxProbe <= n*n
}

// hammingAtMost computes the Hamming distance between q and descriptor j
// of p with a word-wise early exit: any return value > limit means
// "exceeds limit" (it may be a partial sum); a return value ≤ limit is
// the exact distance.
func hammingAtMost(q *Descriptor, p *PreparedBinarySet, j, limit int) int {
	h := bits.OnesCount64(q[0] ^ p.w0[j])
	if h > limit {
		return h
	}
	h += bits.OnesCount64(q[1] ^ p.w1[j])
	if h > limit {
		return h
	}
	h += bits.OnesCount64(q[2] ^ p.w2[j])
	if h > limit {
		return h
	}
	return h + bits.OnesCount64(q[3]^p.w3[j])
}

// queryBands returns descriptor i's precomputed band row when the banded
// path applies for queries against to — the radius must sit inside the
// pigeonhole guarantee and to's tables must be sparse enough to beat the
// scan. A nil return routes nearestOne to the filter scan.
func (p *PreparedBinarySet) queryBands(i, hammingMax int, to *PreparedBinarySet) []uint8 {
	if hammingMax >= mihBands || !to.bandedWorthwhile() {
		return nil
	}
	return p.bands[i*mihBands : (i+1)*mihBands]
}

// MatchPrepared returns the size of the mutual-best (cross-checked)
// one-to-one matching between the two prepared sets — the same quantity
// as MatchBinary, computed with the sub-linear kernel. Results are
// bit-identical to matchBinaryRef for every input (the differential and
// fuzz suites pin this).
func MatchPrepared(a, b *PreparedBinarySet, hammingMax int) int {
	return MatchPreparedAtLeast(a, b, hammingMax, 0)
}

// MatchPreparedAtLeast is MatchPrepared for a caller that only needs to
// know whether the match count reaches need: it returns the exact count
// when that is ≥ need, and some value < need otherwise. Every descriptor
// of a adds at most one match, and a mutual match needs a forward one,
// so the forward pass stops once the matches found plus the descriptors
// left cannot reach need, and the reverse pass runs only when enough
// distinct forward targets exist. need ≤ 0 computes the exact count.
func MatchPreparedAtLeast(a, b *PreparedBinarySet, hammingMax, need int) int {
	n, m := a.Len(), b.Len()
	if n == 0 || m == 0 {
		return 0
	}
	if hammingMax < 0 || hammingMax+1 <= 0 || need > min(n, m) {
		return 0
	}
	// One buffer serves the whole cross-check: forward results, per-target
	// witnesses, and the sparse reverse results. MatchPrepared runs on
	// every cell of the O(batch²) graph, so per-call allocation is paid
	// millions of times.
	buf := make([]int32, n+3*m)
	bestAB, wDist, wIdx, revBest := buf[:n], buf[n:n+m], buf[n+m:n+2*m], buf[n+2*m:]
	forward := 0
	for i := range a.Set.Descriptors {
		if forward+n-i < need {
			return forward
		}
		bestAB[i] = int32(b.nearestOne(&a.Set.Descriptors[i], a.queryBands(i, hammingMax, b),
			int(a.pop[i]), hammingMax, hammingMax+1, -1))
		if bestAB[i] >= 0 {
			forward++
		}
	}
	// The count only reads the reverse nearest neighbor of js that won a
	// forward match, so reverse-search exactly those — seeded with the
	// best forward witness (lexicographic min of (distance, index) over
	// the is that chose j), which the seeded search provably refines to
	// the true reverse nearest neighbor. Each such j confirms at most
	// one match, so fewer than need of them settle the answer.
	for j := range wIdx {
		wIdx[j] = -1
	}
	targets := 0
	for i, j := range bestAB {
		if j < 0 {
			continue
		}
		h := int32(hammingAtMost(&a.Set.Descriptors[i], b, int(j), 256))
		if wIdx[j] < 0 {
			targets++
		}
		if wIdx[j] < 0 || h < wDist[j] {
			wDist[j], wIdx[j] = h, int32(i)
		}
	}
	if targets < need {
		return targets
	}
	for j := range revBest {
		if wIdx[j] < 0 {
			continue
		}
		revBest[j] = int32(a.nearestOne(&b.Set.Descriptors[j], b.queryBands(j, hammingMax, a),
			int(b.pop[j]), hammingMax, int(wDist[j]), int(wIdx[j])))
	}
	matches := 0
	for i, j := range bestAB {
		// Untouched j slots hold 0, but every j that appears in bestAB was
		// witnessed above, so its revBest slot is always computed.
		if j >= 0 && int(revBest[j]) == i {
			matches++
		}
	}
	return matches
}

// JaccardPrepared computes Equation 2 over prepared sets, identical to
// JaccardBinary on the underlying sets.
func JaccardPrepared(a, b *PreparedBinarySet, hammingMax int) float64 {
	m := MatchPrepared(a, b, hammingMax)
	union := a.Len() + b.Len() - m
	if union <= 0 {
		return 0
	}
	return float64(m) / float64(union)
}
