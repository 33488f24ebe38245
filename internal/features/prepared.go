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
// Three exact accelerations compose, all reading the set's own
// descriptors in place:
//
//  1. Fold filter: fold(d) = d[0]^d[1]^d[2]^d[3], and since
//     popcount(x^y) ≤ popcount(x)+popcount(y), the fold distance
//     popcount(fold(q)^fold(d)) never exceeds H(q,d). One XOR+popcount
//     per pair therefore rejects any candidate whose fold distance
//     exceeds the best distance so far; such a pair could never have
//     been accepted. On real ORB sets well under 1% of pairs survive to
//     the full four-word distance and the tie rule. The folds of both
//     sets are computed per call into pooled scratch (about 1 µs for a
//     pair of 300-descriptor sets), so a prepared set stays as small as
//     its descriptors.
//  2. Four-lane forward pass: one scan over the candidate folds serves
//     four query descriptors, each lane keeping its own incumbent in
//     ascending scan order, so every lane gets exactly the single-query
//     answer while the candidate loop runs a quarter as often. At the
//     default GOAMD64=v1 each popcount carries a CPU-feature test with a
//     call fallback that spills the loop's state, so popcounts per pair
//     set the cost, and the fold filter spends one.
//  3. Witness-seeded cross-check: MatchPrepared only needs the reverse
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

// matchScratch is MatchPreparedAtLeast's working memory: the int32
// cross-check slots and the folds of both sets, computed per call.
type matchScratch struct {
	slots []int32
	folds []uint64
}

// crossCheckPool holds MatchPreparedAtLeast's scratch, shared by every
// goroutine that matches (batch-graph workers, concurrent queries).
var crossCheckPool = sync.Pool{New: func() any { return new(matchScratch) }}

// Hamming returns the Hamming distance between two descriptors.
func (d Descriptor) Hamming(o Descriptor) int {
	return bits.OnesCount64(d[0]^o[0]) + bits.OnesCount64(d[1]^o[1]) +
		bits.OnesCount64(d[2]^o[2]) + bits.OnesCount64(d[3]^o[3])
}

// fold XORs a descriptor's four words into one. Bits that differ in an
// odd number of words between d and o differ in their folds, so
// popcount(fold(d)^fold(o)) ≤ d.Hamming(o), with equality when the
// descriptors differ in one word only.
func fold(d *Descriptor) uint64 {
	return d[0] ^ d[1] ^ d[2] ^ d[3]
}

// foldAll writes the fold of each descriptor of ds to dst.
func foldAll(dst []uint64, ds []Descriptor) {
	dst = dst[:len(ds)]
	for i := range ds {
		dst[i] = fold(&ds[i])
	}
}

// settle applies the reference tie rule to a candidate d at index j
// that passed the fold filter: it returns (Hamming(q, d), j) when d is
// nearer than the incumbent (dist, idx), or as near with a lower index,
// and the incumbent otherwise. Fewer than one pair in a hundred gets
// here, so it stays out of line: inlined, its registers make the scan
// loops spill more on every candidate.
//
//go:noinline
func settle(q, d *Descriptor, j, dist, idx int) (int, int) {
	if h := q.Hamming(*d); h < dist || (h == dist && j < idx) {
		return h, j
	}
	return dist, idx
}

// nearestOne finds the nearest neighbor of q (whose fold is fq) in ds
// (whose folds are folds) under the tie rule, starting from the
// incumbent (seedDist, seedIdx), and returns its index, or seedIdx when
// no candidate beats the seed. A search for neighbors within hammingMax
// passes (hammingMax, len(ds)), an index every candidate's tie beats;
// the cross-check passes a forward witness, which tightens the filter
// from the first candidate on.
func nearestOne(q *Descriptor, fq uint64, ds []Descriptor, folds []uint64, seedDist, seedIdx int) int {
	bestDist, bestIdx := seedDist, seedIdx
	ds = ds[:len(folds)]
	for j, f := range folds {
		if bits.OnesCount64(fq^f) <= bestDist {
			bestDist, bestIdx = settle(q, &ds[j], j, bestDist, bestIdx)
			if bestDist == 0 && bestIdx <= j {
				// An exact duplicate cannot be beaten, and the ascending
				// scan guarantees no lower-index tie remains ahead.
				break
			}
		}
	}
	return bestIdx
}

// forwardNearest writes to best[i] the index of the nearest neighbor in
// b of each descriptor a[i] within hammingMax, or -1 when there is none
// (fa and fb are the sets' folds). It scans b once per block of four
// descriptors of a, each lane keeping its own incumbent in ascending
// scan order, so every lane gets exactly nearestOne's answer; the
// n mod 4 descriptors left over go through nearestOne. Before each
// block it stops once the forward matches found plus the descriptors
// left fall short of need. It returns the forward matches found and how
// many descriptors of a it resolved (len(a) unless it stopped early).
func forwardNearest(a, b []Descriptor, fa, fb []uint64, hammingMax, need int, best []int32) (forward, resolved int) {
	n, none := len(a), len(b)
	fa, best = fa[:n], best[:n]
	b = b[:len(fb)]
	record := func(i, j int) {
		if j == none {
			best[i] = -1
			return
		}
		best[i] = int32(j)
		forward++
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		if forward+n-i < need {
			return forward, i
		}
		q0, q1, q2, q3 := &a[i], &a[i+1], &a[i+2], &a[i+3]
		f0, f1, f2, f3 := fa[i], fa[i+1], fa[i+2], fa[i+3]
		d0, d1, d2, d3 := hammingMax, hammingMax, hammingMax, hammingMax
		j0, j1, j2, j3 := none, none, none, none
		for j, f := range fb {
			if bits.OnesCount64(f0^f) <= d0 {
				d0, j0 = settle(q0, &b[j], j, d0, j0)
				if d0|d1|d2|d3 == 0 && max(j0, j1, j2, j3) <= j {
					break // every lane holds an exact duplicate
				}
			}
			if bits.OnesCount64(f1^f) <= d1 {
				d1, j1 = settle(q1, &b[j], j, d1, j1)
				if d0|d1|d2|d3 == 0 && max(j0, j1, j2, j3) <= j {
					break
				}
			}
			if bits.OnesCount64(f2^f) <= d2 {
				d2, j2 = settle(q2, &b[j], j, d2, j2)
				if d0|d1|d2|d3 == 0 && max(j0, j1, j2, j3) <= j {
					break
				}
			}
			if bits.OnesCount64(f3^f) <= d3 {
				d3, j3 = settle(q3, &b[j], j, d3, j3)
				if d0|d1|d2|d3 == 0 && max(j0, j1, j2, j3) <= j {
					break
				}
			}
		}
		record(i, j0)
		record(i+1, j1)
		record(i+2, j2)
		record(i+3, j3)
	}
	for ; i < n; i++ {
		if forward+n-i < need {
			return forward, i
		}
		record(i, nearestOne(&a[i], fa[i], b, fb, hammingMax, none))
	}
	return forward, n
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
	// One pooled scratch serves the whole cross-check: the folds of both
	// sets, forward results, per-target witnesses, and the sparse reverse
	// results. MatchPrepared runs on every cell of the O(batch²) graph
	// and every index re-rank, so a per-call allocation is paid millions
	// of times. Every slot is written before it is read, so a reused
	// scratch needs no clearing.
	sc := crossCheckPool.Get().(*matchScratch)
	defer crossCheckPool.Put(sc)
	if cap(sc.slots) < n+3*m {
		sc.slots = make([]int32, n+3*m)
	}
	if cap(sc.folds) < n+m {
		sc.folds = make([]uint64, n+m)
	}
	buf := sc.slots[:n+3*m]
	bestAB, wDist, wIdx, revBest := buf[:n], buf[n:n+m], buf[n+m:n+2*m], buf[n+2*m:]
	ad, bd := a.Set.Descriptors, b.Set.Descriptors
	fa, fb := sc.folds[:n], sc.folds[n:n+m]
	foldAll(fa, ad)
	foldAll(fb, bd)
	forward, resolved := forwardNearest(ad, bd, fa, fb, hammingMax, need, bestAB)
	if resolved < n {
		return forward
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
		h := int32(ad[i].Hamming(bd[j]))
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
		revBest[j] = int32(nearestOne(&bd[j], fb[j], ad, fa, int(wDist[j]), int(wIdx[j])))
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
