package features

// Exact fast binary matching. The brute-force matcher in descset.go
// compares every query descriptor against every candidate — O(n·m) full
// 256-bit Hamming distances per direction, twice per set pair for the
// cross-check. Every similarity the system computes (IBRD's O(batch²)
// graph, CBRD index re-ranking, the baselines, the harness figures)
// bottoms out there, so this file provides a faster kernel that is
// *bit-identical* to the brute force: same match counts, same chosen
// indices, same tie-breaks. descset_diff_test.go pins that equivalence.
//
// Two exact accelerations compose, both reading the set's own
// descriptors in place:
//
//  1. Two-word filtered scan: a nearest-neighbor search streams the
//     candidate set once, and a branch-free XOR+popcount over the first
//     two 64-bit words rejects any descriptor whose half-descriptor
//     distance already exceeds the best bound so far — H(a,b) is at
//     least the distance over any subset of words. Survivors finish word
//     by word, the bound shrinks as better neighbors turn up, and an
//     exact duplicate ends the scan.
//  2. Witness-seeded cross-check: MatchPrepared only needs the reverse
//     nearest neighbor of descriptors that won a forward match, and the
//     forward pass already supplies a witness (distance, index) pair
//     that upper-bounds the reverse search. Reverse queries start from
//     that bound, so the filter rejects almost everything immediately;
//     unmatched descriptors are never reverse-searched at all. A caller
//     that only asks whether the count reaches a threshold
//     (MatchPreparedAtLeast) also stops the forward pass once the
//     threshold is out of reach, and skips the reverse pass when too
//     few descriptors won a forward match.

import (
	"math/bits"
	"sync"
)

// PreparedBinarySet is the operand of the matching kernel: a BinarySet
// whose descriptors the kernel reads in place. Build it once per set
// (Prepare) and reuse it across all pairwise comparisons; it is
// immutable and safe for concurrent readers.
type PreparedBinarySet struct {
	// Set is the underlying descriptor set. It must not be mutated after
	// Prepare.
	Set *BinarySet
}

// Prepare wraps s for the matching kernel without copying a descriptor.
// Nil and empty sets prepare to an empty (but usable) PreparedBinarySet.
func (s *BinarySet) Prepare() *PreparedBinarySet {
	return &PreparedBinarySet{Set: s}
}

// Len returns the number of descriptors in the underlying set.
func (p *PreparedBinarySet) Len() int {
	if p == nil {
		return 0
	}
	return p.Set.Len()
}

// crossCheckPool holds MatchPreparedAtLeast's int32 buffers, shared by
// every goroutine that matches (batch-graph workers, concurrent queries).
var crossCheckPool = sync.Pool{New: func() any { return new([]int32) }}

// Hamming returns the Hamming distance between two descriptors.
func (d Descriptor) Hamming(o Descriptor) int {
	return bits.OnesCount64(d[0]^o[0]) + bits.OnesCount64(d[1]^o[1]) +
		bits.OnesCount64(d[2]^o[2]) + bits.OnesCount64(d[3]^o[3])
}

// nearestOne finds the nearest neighbor of q in p under the reference tie
// rule — strictly nearer wins, equal distance goes to the lower index —
// starting from an incumbent (seedDist, seedIdx). Unseeded searches pass
// (hammingMax+1, -1); the cross-check passes a forward witness, which
// tightens the filter from the first candidate on.
func (p *PreparedBinarySet) nearestOne(q *Descriptor, seedDist, seedIdx int) int {
	bestDist, bestIdx := seedDist, seedIdx
	// Real BRIEF words are correlated enough that a single word passes
	// tens of percent of candidates — branching there mispredicts
	// constantly — while two words reject >99%.
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	ds := p.Set.Descriptors // hoisted: p.Set is reloaded on every access
	for j := range ds {
		d := &ds[j]
		h := bits.OnesCount64(q0^d[0]) + bits.OnesCount64(q1^d[1])
		if h > bestDist {
			continue
		}
		h += bits.OnesCount64(q2 ^ d[2])
		if h > bestDist {
			continue
		}
		h += bits.OnesCount64(q3 ^ d[3])
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

// MatchPrepared returns the size of the mutual-best (cross-checked)
// one-to-one matching between the two prepared sets — the same quantity
// as MatchBinary, computed with the fast kernel. Results are
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
	// One pooled buffer serves the whole cross-check: forward results,
	// per-target witnesses, and the sparse reverse results. MatchPrepared
	// runs on every cell of the O(batch²) graph and every index re-rank,
	// so a per-call allocation is paid millions of times. Every slot is
	// written before it is read, so a reused buffer needs no clearing.
	bp := crossCheckPool.Get().(*[]int32)
	defer crossCheckPool.Put(bp)
	if cap(*bp) < n+3*m {
		*bp = make([]int32, n+3*m)
	}
	buf := (*bp)[:n+3*m]
	bestAB, wDist, wIdx, revBest := buf[:n], buf[n:n+m], buf[n+m:n+2*m], buf[n+2*m:]
	forward := 0
	for i := range a.Set.Descriptors {
		if forward+n-i < need {
			return forward
		}
		bestAB[i] = int32(b.nearestOne(&a.Set.Descriptors[i], hammingMax+1, -1))
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
		h := int32(a.Set.Descriptors[i].Hamming(b.Set.Descriptors[j]))
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
		revBest[j] = int32(a.nearestOne(&b.Set.Descriptors[j], int(wDist[j]), int(wIdx[j])))
	}
	matches := 0
	for i, j := range bestAB {
		// Unwitnessed revBest slots hold stale values, but every j that
		// appears in bestAB was witnessed above, so its slot is computed.
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
