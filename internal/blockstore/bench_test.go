package blockstore

import (
	"fmt"
	"testing"
)

// BenchmarkBlockDedup measures the cross-user dedup hot path: a second
// client re-uploading an identical payload costs one HaveBitmap (all
// hits) and one commit — no hashing of payload data, no copies.
func BenchmarkBlockDedup(b *testing.B) {
	for _, size := range []int{256 << 10, 2 << 20} {
		b.Run(fmt.Sprintf("payload=%dKiB", size>>10), func(b *testing.B) {
			const blockSize = 32 << 10
			s := NewStore(Config{})
			blob := SynthPayload(9, size)
			m := ManifestOf(blob, blockSize)
			for i, blk := range Split(blob, blockSize) {
				if _, err := s.Put(m.Hashes[i], blk); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				have := s.HaveBitmap(m.Hashes)
				for _, ok := range have {
					if !ok {
						b.Fatal("dedup miss on identical payload")
					}
				}
				if err := s.Commit(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUploadResume measures the severed-mid-image resume path:
// manifest the payload, ask which blocks already landed, and re-send
// only the missing half. The split/hash cost dominates and is the price
// of resumability on the client.
func BenchmarkUploadResume(b *testing.B) {
	const size = 1 << 20
	blockSize := 64 << 10
	blob := SynthPayload(11, size)
	m := ManifestOf(blob, blockSize)
	blocks := Split(blob, blockSize)
	half := len(blocks) / 2
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewStore(Config{})
		for j := 0; j < half; j++ { // blocks acked before the sever
			if _, err := s.Put(m.Hashes[j], blocks[j]); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		// Resume: client re-manifests the payload, queries, sends misses.
		rm := ManifestOf(blob, blockSize)
		have := s.HaveBitmap(rm.Hashes)
		for j, ok := range have {
			if ok {
				continue
			}
			if _, err := s.Put(rm.Hashes[j], blocks[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Commit(rm); err != nil {
			b.Fatal(err)
		}
	}
}
