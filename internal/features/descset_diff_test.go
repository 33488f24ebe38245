package features

// Differential harness pinning the prepared kernel
// (prepared.go) bit-identical to the brute-force reference matcher
// (matchBinaryRef): same nearest-neighbor indices, same match counts,
// same Jaccard values, across adversarial set shapes, radii, duplicate
// structure, and testing/quick random instances.

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// randDescriptor draws a uniformly random 256-bit descriptor.
func randDescriptor(rng *rand.Rand) Descriptor {
	return Descriptor{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
}

// perturb flips k random bits of d.
func perturb(rng *rand.Rand, d Descriptor, k int) Descriptor {
	for i := 0; i < k; i++ {
		b := rng.Intn(256)
		d[b>>6] ^= 1 << uint(b&63)
	}
	return d
}

// randSet builds a descriptor set of size n. Descriptors are drawn from
// a small pool of bases with few-bit perturbations, so sets are full of
// near-duplicates, exact duplicates, and distance ties — the regime where
// tie-breaking bugs would show.
func randSet(rng *rand.Rand, n, bases int) *BinarySet {
	if n == 0 {
		return &BinarySet{}
	}
	if bases < 1 {
		bases = 1
	}
	pool := make([]Descriptor, bases)
	for i := range pool {
		pool[i] = randDescriptor(rng)
	}
	s := &BinarySet{Descriptors: make([]Descriptor, n)}
	for i := range s.Descriptors {
		s.Descriptors[i] = perturb(rng, pool[rng.Intn(bases)], rng.Intn(8))
	}
	return s
}

// assertKernelEqual checks every observable of the fast kernel against
// the reference for one (a, b, radius) instance.
func assertKernelEqual(t *testing.T, a, b *BinarySet, hammingMax int) {
	t.Helper()
	pa, pb := a.Prepare(), b.Prepare()
	refAB := nearestBinary(a.Descriptors, b.Descriptors, hammingMax)
	gotAB := nearestPrepared(pa, pb, hammingMax)
	for i := range refAB {
		if refAB[i] != gotAB[i] {
			t.Fatalf("radius %d: nearest[%d] = %d, reference %d", hammingMax, i, gotAB[i], refAB[i])
		}
	}
	refBA := nearestBinary(b.Descriptors, a.Descriptors, hammingMax)
	gotBA := nearestPrepared(pb, pa, hammingMax)
	for i := range refBA {
		if refBA[i] != gotBA[i] {
			t.Fatalf("radius %d: reverse nearest[%d] = %d, reference %d", hammingMax, i, gotBA[i], refBA[i])
		}
	}
	if got, want := MatchPrepared(pa, pb, hammingMax), matchBinaryRef(a, b, hammingMax); got != want {
		t.Fatalf("radius %d: MatchPrepared = %d, reference %d", hammingMax, got, want)
	}
	if got, want := MatchBinary(a, b, hammingMax), matchBinaryRef(a, b, hammingMax); got != want {
		t.Fatalf("radius %d: MatchBinary = %d, reference %d", hammingMax, got, want)
	}
	if got, want := JaccardPrepared(pa, pb, hammingMax), JaccardBinaryRef(a, b, hammingMax); got != want {
		t.Fatalf("radius %d: JaccardPrepared = %v, reference %v", hammingMax, got, want)
	}
	if got, want := JaccardBinary(a, b, hammingMax), JaccardBinaryRef(a, b, hammingMax); got != want {
		t.Fatalf("radius %d: JaccardBinary = %v, reference %v", hammingMax, got, want)
	}
}

// diffRadii covers degenerate radii, small radii and the default, mid
// radii (31–33, 64), and beyond-saturation radii.
var diffRadii = []int{-1, 0, 1, 2, 5, DefaultHammingMax, 31, 32, 33, 64, 255, 256,
	300, math.MaxInt}

func TestPreparedMatchesReferenceTable(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd1ff))
	dup := randDescriptor(rng)
	cases := []struct {
		name string
		a, b *BinarySet
	}{
		{"both empty", &BinarySet{}, &BinarySet{}},
		{"left empty", &BinarySet{}, randSet(rng, 7, 3)},
		{"right empty", randSet(rng, 7, 3), &BinarySet{}},
		{"singletons", randSet(rng, 1, 1), randSet(rng, 1, 1)},
		{"singleton vs many", randSet(rng, 1, 1), randSet(rng, 40, 5)},
		{"equal sizes", randSet(rng, 24, 4), randSet(rng, 24, 4)},
		{"skewed sizes", randSet(rng, 3, 2), randSet(rng, 120, 6)},
		{"duplicates inside sets",
			&BinarySet{Descriptors: []Descriptor{dup, dup, perturb(rng, dup, 1), dup}},
			&BinarySet{Descriptors: []Descriptor{perturb(rng, dup, 2), dup, dup}}},
		{"all identical",
			&BinarySet{Descriptors: []Descriptor{dup, dup, dup, dup, dup}},
			&BinarySet{Descriptors: []Descriptor{dup, dup, dup}}},
		{"same set both sides", randSet(rng, 30, 3), nil}, // b filled below
	}
	cases[len(cases)-1].b = cases[len(cases)-1].a
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, r := range diffRadii {
				assertKernelEqual(t, tc.a, tc.b, r)
			}
		})
	}
}

func TestPreparedMatchesReferenceQuick(t *testing.T) {
	// testing/quick drives the instance generator: sizes (incl. 0/1,
	// equal, skewed), base-pool entropy, and radius all derive from the
	// fuzzed integers.
	f := func(seed int64, na, nb uint8, bases uint8, radius int16, need uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSet(rng, int(na)%48, 1+int(bases)%6)
		b := randSet(rng, int(nb)%48, 1+int(bases)%6)
		r := int(radius) % 280
		pa, pb := a.Prepare(), b.Prepare()
		want := matchBinaryRef(a, b, r)
		if MatchPrepared(pa, pb, r) != want {
			return false
		}
		if !atLeastHolds(pa, pb, r, int(need)%(min(a.Len(), b.Len())+3), want) {
			return false
		}
		gotAB := nearestPrepared(pa, pb, r)
		refAB := nearestBinary(a.Descriptors, b.Descriptors, r)
		for i := range refAB {
			if gotAB[i] != refAB[i] {
				return false
			}
		}
		return JaccardPrepared(pa, pb, r) == JaccardBinaryRef(a, b, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// atLeastHolds reports whether MatchPreparedAtLeast(pa, pb, r, need)
// keeps its contract against the reference count want: exact when want
// reaches need, below need otherwise.
func atLeastHolds(pa, pb *PreparedBinarySet, r, need, want int) bool {
	got := MatchPreparedAtLeast(pa, pb, r, need)
	if want >= need {
		return got == want
	}
	return got < need
}

func TestPreparedMatchesReferenceOnExtractedSets(t *testing.T) {
	// Real BRIEF descriptors are correlated (skewed band histograms),
	// unlike the synthetic pools above; pin equality on them too.
	ref, similar, other := testImages(77)
	cfg := DefaultConfig()
	sets := []*BinarySet{
		ExtractORB(ref, cfg), ExtractORB(similar, cfg), ExtractORB(other, cfg),
	}
	for _, a := range sets {
		for _, b := range sets {
			for _, r := range []int{0, 5, DefaultHammingMax, 32, 80} {
				assertKernelEqual(t, a, b, r)
			}
		}
	}
}

func TestPreparedFoldBound(t *testing.T) {
	// The fold filter rejects a pair on popcount(fold(q)^fold(d)) alone,
	// which is exact only if that never exceeds the Hamming distance. It
	// equals it when the descriptors differ in one word, the case where
	// a filter compared with < instead of <= would reject a neighbor.
	foldDist := func(q, d Descriptor) int { return bits.OnesCount64(fold(&q) ^ fold(&d)) }
	f := func(q, d Descriptor, w uint8) bool {
		if foldDist(q, d) > q.Hamming(d) {
			return false
		}
		e := q
		e[w%4] = d[w%4]
		return foldDist(q, e) == q.Hamming(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedForwardStopsEarly(t *testing.T) {
	// The forward pass must stop at the first block — four descriptors,
	// then one per descriptor of the n mod 4 tail — where the forward
	// matches found plus the descriptors left fall short of need, and
	// resolve every descriptor before it exactly as the reference does.
	f := func(seed int64, na, nb, bases, need uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSet(rng, 1+int(na)%20, 1+int(bases)%4)
		b := randSet(rng, 1+int(nb)%20, 1+int(bases)%4)
		n, r := a.Len(), 3
		ref := nearestBinary(a.Descriptors, b.Descriptors, r)
		k := int(need) % (n + 2)
		wantForward, wantResolved := 0, n
		for i := 0; i < n; {
			if wantForward+n-i < k {
				wantResolved = i
				break
			}
			step := 4
			if i+4 > n {
				step = 1
			}
			for _, j := range ref[i : i+step] {
				if j >= 0 {
					wantForward++
				}
			}
			i += step
		}
		fa, fb := make([]uint64, n), make([]uint64, b.Len())
		foldAll(fa, a.Descriptors)
		foldAll(fb, b.Descriptors)
		best := make([]int32, n)
		forward, resolved := forwardNearest(a.Descriptors, b.Descriptors, fa, fb, r, k, best)
		if forward != wantForward || resolved != wantResolved {
			return false
		}
		for i := range best[:resolved] {
			if int(best[i]) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPrepareEmptyAndNil(t *testing.T) {
	var nilSet *BinarySet
	p := nilSet.Prepare()
	if p.Len() != 0 {
		t.Fatal("nil set should prepare to an empty prepared set")
	}
	q := (&BinarySet{}).Prepare()
	if MatchPrepared(p, q, DefaultHammingMax) != 0 {
		t.Fatal("empty prepared match should be 0")
	}
	if JaccardPrepared(p, q, DefaultHammingMax) != 0 {
		t.Fatal("empty prepared Jaccard should be 0")
	}
	var nilPrep *PreparedBinarySet
	if nilPrep.Len() != 0 {
		t.Fatal("nil prepared Len should be 0")
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// preparedSink keeps Prepare's result on the heap, as every real caller
// does, so TestPrepareAllocs counts what callers pay.
var preparedSink *PreparedBinarySet

func TestPrepareAllocs(t *testing.T) {
	ref, _, _ := testImages(901)
	s := ExtractORB(ref, DefaultConfig())
	if s.Len() < 200 {
		t.Fatalf("extracted only %d descriptors, want a full-size set", s.Len())
	}
	allocs := testing.AllocsPerRun(20, func() { preparedSink = s.Prepare() })
	if allocs > 2 {
		t.Fatalf("Prepare of %d descriptors makes %.1f allocations, want <= 2", s.Len(), allocs)
	}
	if p := s.Prepare(); p.Set != s || &p.Set.Descriptors[0] != &s.Descriptors[0] {
		t.Fatal("Prepare copied the descriptors instead of reading them in place")
	}
}

func TestMatchPreparedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	ref, similar, _ := testImages(901)
	cfg := DefaultConfig()
	pa, pb := ExtractORB(ref, cfg).Prepare(), ExtractORB(similar, cfg).Prepare()
	for _, need := range []int{0, 1, pa.Len()} {
		MatchPreparedAtLeast(pa, pb, DefaultHammingMax, need) // warm the pool
		allocs := testing.AllocsPerRun(20, func() {
			MatchPreparedAtLeast(pa, pb, DefaultHammingMax, need)
		})
		if allocs != 0 {
			t.Fatalf("MatchPreparedAtLeast(need=%d) allocates %.1f/op after warm-up, want 0", need, allocs)
		}
	}
}
