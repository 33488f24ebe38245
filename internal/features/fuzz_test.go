package features

// FuzzMatchBinary drives the prepared kernel and the brute-force oracle
// with arbitrary descriptor bytes, set splits, and radii, asserting they
// never diverge and never panic, and that the thresholded kernel keeps
// its contract at a threshold drawn from the same input. The seed corpus
// in testdata/fuzz/FuzzMatchBinary runs as part of the normal test
// suite; `make fuzz` explores beyond it.

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// fuzzSets splits raw into 32-byte descriptors and partitions them into
// two sets at split.
func fuzzSets(raw []byte, split byte) (*BinarySet, *BinarySet) {
	var ds []Descriptor
	for len(raw) >= 32 {
		var d Descriptor
		for w := 0; w < 4; w++ {
			d[w] = binary.LittleEndian.Uint64(raw[w*8:])
		}
		ds = append(ds, d)
		raw = raw[32:]
	}
	k := 0
	if len(ds) > 0 {
		k = int(split) % (len(ds) + 1)
	}
	return &BinarySet{Descriptors: ds[:k]}, &BinarySet{Descriptors: ds[k:]}
}

// appendDescriptor appends d in the byte layout fuzzSets reads.
func appendDescriptor(raw []byte, d Descriptor) []byte {
	for _, w := range d {
		raw = binary.LittleEndian.AppendUint64(raw, w)
	}
	return raw
}

func FuzzMatchBinary(f *testing.F) {
	// A couple of inline seeds beyond the checked-in corpus: empty input,
	// one identical pair, and radius 32.
	f.Add([]byte{}, byte(0), 20)
	pair := make([]byte, 64)
	for i := range pair {
		pair[i] = byte(i * 7)
	}
	copy(pair[32:], pair[:32])
	f.Add(pair, byte(1), 0)
	f.Add(pair, byte(1), 32)
	// Every lane/tail shape of the four-lane forward pass: 1–9
	// descriptors per side, b's near or exact duplicates of a's, at
	// radii where the fold filter's equality case decides.
	rng := rand.New(rand.NewSource(1))
	for na := 1; na <= 9; na++ {
		for nb := 1; nb <= 9; nb++ {
			var raw []byte
			ds := make([]Descriptor, na)
			for i := range ds {
				ds[i] = randDescriptor(rng)
				raw = appendDescriptor(raw, ds[i])
			}
			for range nb {
				raw = appendDescriptor(raw, perturb(rng, ds[rng.Intn(na)], rng.Intn(4)))
			}
			f.Add(raw, byte(na), []int{0, 2, DefaultHammingMax}[(na+nb)%3])
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, split byte, radius int) {
		a, b := fuzzSets(raw, split)
		pa, pb := a.Prepare(), b.Prepare()
		want := matchBinaryRef(a, b, radius)
		if got := MatchPrepared(pa, pb, radius); got != want {
			t.Fatalf("MatchPrepared = %d, reference %d (na=%d nb=%d r=%d)",
				got, want, a.Len(), b.Len(), radius)
		}
		// The threshold is drawn from the input over [0, min(na, nb)+2],
		// so it lands below, at and above the true count.
		need := (int(split) ^ radius&0xff) % (min(a.Len(), b.Len()) + 3)
		if !atLeastHolds(pa, pb, radius, need, want) {
			t.Fatalf("MatchPreparedAtLeast(need=%d) = %d breaks its contract, reference %d (na=%d nb=%d r=%d)",
				need, MatchPreparedAtLeast(pa, pb, radius, need), want, a.Len(), b.Len(), radius)
		}
		if got := MatchBinary(a, b, radius); got != want {
			t.Fatalf("MatchBinary = %d, reference %d", got, want)
		}
		refAB := nearestBinary(a.Descriptors, b.Descriptors, radius)
		gotAB := nearestPrepared(pa, pb, radius)
		for i := range refAB {
			if gotAB[i] != refAB[i] {
				t.Fatalf("nearest[%d] = %d, reference %d (r=%d)", i, gotAB[i], refAB[i], radius)
			}
		}
		if got, want := JaccardPrepared(pa, pb, radius), JaccardBinaryRef(a, b, radius); got != want {
			t.Fatalf("JaccardPrepared = %v, reference %v", got, want)
		}
		if JaccardBinary(a, b, radius) != JaccardBinary(b, a, radius) {
			t.Fatalf("JaccardBinary asymmetric at r=%d", radius)
		}
	})
}
