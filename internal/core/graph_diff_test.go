package core

// Differential test: BuildBatchGraph (prepared kernel, paired-row
// parallel) must produce exactly the graph the brute-force reference
// matcher builds serially — every weight bit-identical.

import (
	"math/bits"
	"math/rand"
	"testing"

	"bees/internal/features"
	"bees/internal/submod"
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

// buildBatchGraphRef is the test oracle: same capping and cell layout as
// BuildBatchGraph, but serial and on the brute-force reference matcher.
func buildBatchGraphRef(sets []*features.BinarySet, survivors []int, cap, hammingMax int) *submod.Graph {
	g := submod.NewGraph(len(survivors))
	capped := make([]*features.BinarySet, len(survivors))
	for i, si := range survivors {
		capped[i] = capSet(sets[si], cap)
	}
	for a := 0; a < len(survivors); a++ {
		for b := a + 1; b < len(survivors); b++ {
			g.SetWeight(a, b, jaccardRef(capped[a], capped[b], hammingMax))
		}
	}
	return g
}

// clusteredSets builds descriptor sets the way images produce them: a few
// shared motifs perturbed per set, so cross-set similarities and distance
// ties actually occur.
func clusteredSets(rng *rand.Rand, nSets, perSet int) []*features.BinarySet {
	motifs := make([]features.Descriptor, 8)
	for i := range motifs {
		motifs[i] = features.Descriptor{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
	}
	sets := make([]*features.BinarySet, nSets)
	for s := range sets {
		set := &features.BinarySet{
			Descriptors: make([]features.Descriptor, perSet),
			Keypoints:   make([]features.Keypoint, perSet), // capSet slices both
		}
		for j := range set.Descriptors {
			d := motifs[rng.Intn(len(motifs))]
			for f := rng.Intn(6); f > 0; f-- {
				bit := rng.Intn(256)
				d[bit>>6] ^= 1 << uint(bit&63)
			}
			set.Descriptors[j] = d
		}
		sets[s] = set
	}
	return sets
}

func TestBuildBatchGraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x60))
	for _, tc := range []struct {
		nSets, perSet, cap, radius int
	}{
		{1, 10, 50, features.DefaultHammingMax},
		{2, 1, 50, features.DefaultHammingMax},
		{12, 30, 20, features.DefaultHammingMax}, // capping active
		{8, 25, 50, 0},
		{8, 25, 50, 120}, // beyond the banded radius
	} {
		sets := clusteredSets(rng, tc.nSets, tc.perSet)
		survivors := make([]int, tc.nSets)
		for i := range survivors {
			survivors[i] = i
		}
		got := BuildBatchGraph(sets, survivors, tc.cap, tc.radius)
		want := buildBatchGraphRef(sets, survivors, tc.cap, tc.radius)
		for a := 0; a < tc.nSets; a++ {
			for b := 0; b < tc.nSets; b++ {
				if got.W[a][b] != want.W[a][b] {
					t.Fatalf("%+v: weight[%d][%d] = %v, reference %v",
						tc, a, b, got.W[a][b], want.W[a][b])
				}
			}
		}
	}
}
