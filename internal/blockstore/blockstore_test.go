package blockstore

import (
	"bytes"
	"errors"
	"testing"

	"bees/internal/telemetry"
)

// BlockLen returns the byte length of block i of the manifest.
func (m *Manifest) BlockLen(i int) int {
	if i < 0 || i >= len(m.Hashes) {
		return 0
	}
	if i == len(m.Hashes)-1 {
		if rem := int(m.TotalBytes % int64(m.BlockSize)); rem != 0 {
			return rem
		}
	}
	return m.BlockSize
}

// Get returns a copy of a stored block.
func (s *Store) Get(h Hash) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blocks[h]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), e.data...), true
}

func TestSplitAndManifest(t *testing.T) {
	blob := SynthPayload(7, 1000)
	m := ManifestOf(blob, 256)
	if m.TotalBytes != 1000 || m.BlockSize != 256 {
		t.Fatalf("manifest header = %d/%d", m.TotalBytes, m.BlockSize)
	}
	if len(m.Hashes) != 4 {
		t.Fatalf("1000 bytes at 256 = %d blocks, want 4", len(m.Hashes))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	blocks := Split(blob, 256)
	if len(blocks) != 4 {
		t.Fatalf("Split returned %d blocks", len(blocks))
	}
	var reassembled []byte
	for i, b := range blocks {
		if HashBlock(b) != m.Hashes[i] {
			t.Fatalf("block %d hash mismatch", i)
		}
		if len(b) != m.BlockLen(i) {
			t.Fatalf("block %d is %d bytes, BlockLen says %d", i, len(b), m.BlockLen(i))
		}
		reassembled = append(reassembled, b...)
	}
	if !bytes.Equal(reassembled, blob) {
		t.Fatal("blocks do not reassemble to the payload")
	}
	// Exact multiple: the last block is full-size.
	m2 := ManifestOf(SynthPayload(8, 512), 256)
	if len(m2.Hashes) != 2 || m2.BlockLen(1) != 256 {
		t.Fatalf("512/256: %d blocks, last %d bytes", len(m2.Hashes), m2.BlockLen(1))
	}
	// Empty payload: zero blocks, still valid.
	m3 := ManifestOf(nil, 256)
	if len(m3.Hashes) != 0 || m3.Validate() != nil {
		t.Fatalf("empty payload manifest: %+v", m3)
	}
	if NumBlocks(-1, 256) != 0 || NumBlocks(10, 0) != 0 {
		t.Fatal("NumBlocks must be 0 for degenerate inputs")
	}
	if m.BlockLen(-1) != 0 || m.BlockLen(99) != 0 {
		t.Fatal("out-of-range BlockLen must be 0")
	}
}

func TestManifestValidate(t *testing.T) {
	bad := []Manifest{
		{TotalBytes: 100, BlockSize: 0, Hashes: make([]Hash, 1)},
		{TotalBytes: 100, BlockSize: MaxBlockSize + 1, Hashes: make([]Hash, 1)},
		{TotalBytes: -1, BlockSize: 256},
		{TotalBytes: 1000, BlockSize: 256, Hashes: make([]Hash, 3)},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Errorf("manifest %d validated: %+v", i, m)
		}
	}
}

func TestStorePutCommitRelease(t *testing.T) {
	tel := telemetry.NewRegistry()
	s := NewStore(Config{Telemetry: tel})
	blob := SynthPayload(1, 300)
	m := ManifestOf(blob, 128)
	blocks := Split(blob, 128)

	// Commit before any Put: all-or-nothing, nothing referenced.
	if err := s.Commit(m); !errors.Is(err, ErrMissingBlock) {
		t.Fatalf("commit of absent blocks: %v", err)
	}
	for i, b := range blocks {
		stored, err := s.Put(m.Hashes[i], b)
		if err != nil || !stored {
			t.Fatalf("put %d: stored=%v err=%v", i, stored, err)
		}
		if got := s.RefCount(m.Hashes[i]); got != 0 {
			t.Fatalf("staged block refcount = %d", got)
		}
	}
	// Duplicate put: dedup hit, not stored again.
	if stored, err := s.Put(m.Hashes[0], blocks[0]); err != nil || stored {
		t.Fatalf("dup put: stored=%v err=%v", stored, err)
	}
	snap := tel.Snapshot()
	if snap.Counters["blockstore.put.dup_blocks"] != 1 ||
		snap.Counters["blockstore.dedup.bytes"] != int64(len(blocks[0])) {
		t.Fatalf("dedup counters: %v", snap.Counters)
	}

	if err := s.Commit(m); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Blocks != 3 || st.Bytes != 300 || st.Refs != 3 || st.LogicalBytes != 300 {
		t.Fatalf("stats after commit: %+v", st)
	}
	// A second image with identical content: zero new bytes, refs double.
	if err := s.Commit(m); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Blocks != 3 || st.Bytes != 300 || st.Refs != 6 || st.LogicalBytes != 600 {
		t.Fatalf("stats after identical commit: %+v", st)
	}
}

func TestStorePutRejectsBadBlocks(t *testing.T) {
	s := NewStore(Config{})
	data := []byte("hello world")
	if _, err := s.Put(HashBlock([]byte("other")), data); !errors.Is(err, ErrHashMismatch) {
		t.Fatalf("hash mismatch not rejected: %v", err)
	}
	if _, err := s.Put(HashBlock(nil), nil); err == nil {
		t.Fatal("empty block accepted")
	}
	if s.Len() != 0 {
		t.Fatalf("rejected puts stored %d blocks", s.Len())
	}
	if _, ok := s.Get(HashBlock(data)); ok {
		t.Fatal("Get found a never-stored block")
	}
	if s.RefCount(HashBlock(data)) != -1 {
		t.Fatal("RefCount of absent block must be -1")
	}
}

// TestStageLogsBeforePublishing: Stage runs its log step only for a
// verified new block, before the block is visible; a failed log stores
// nothing.
func TestStageLogsBeforePublishing(t *testing.T) {
	s := NewStore(Config{})
	data := []byte("staged block")
	h := HashBlock(data)
	calls := 0
	visibleDuringLog := false
	log := func() error {
		calls++
		visibleDuringLog = s.Has(h)
		return nil
	}
	if _, err := s.Stage(HashBlock([]byte("other")), data, log); !errors.Is(err, ErrHashMismatch) || calls != 0 {
		t.Fatalf("mismatched block: err %v, %d log calls", err, calls)
	}
	boom := errors.New("log failed")
	if stored, err := s.Stage(h, data, func() error { return boom }); !errors.Is(err, boom) || stored || s.Has(h) {
		t.Fatalf("failed log: stored=%v err=%v has=%v", stored, err, s.Has(h))
	}
	if stored, err := s.Stage(h, data, log); err != nil || !stored || calls != 1 || visibleDuringLog {
		t.Fatalf("new block: stored=%v err=%v calls=%d visible during log=%v", stored, err, calls, visibleDuringLog)
	}
	if stored, err := s.Stage(h, data, log); err != nil || stored || calls != 1 {
		t.Fatalf("duplicate: stored=%v err=%v calls=%d", stored, err, calls)
	}

	// A concurrent stager that publishes the block while this one logs
	// wins: this Stage reports a duplicate and stores nothing twice.
	other := []byte("raced block")
	hOther := HashBlock(other)
	race := func() error { _, err := s.Put(hOther, other); return err }
	if stored, err := s.Stage(hOther, other, race); err != nil || stored {
		t.Fatalf("lost race: stored=%v err=%v", stored, err)
	}
	if st := s.Stats(); st.Blocks != 2 || st.Bytes != int64(len(data)+len(other)) {
		t.Fatalf("stats after race: %+v", st)
	}
}

func TestStoreHaveBitmapAndGet(t *testing.T) {
	s := NewStore(Config{})
	blob := SynthPayload(3, 500)
	m := ManifestOf(blob, 200)
	blocks := Split(blob, 200)
	if _, err := s.Put(m.Hashes[1], blocks[1]); err != nil {
		t.Fatal(err)
	}
	have := s.HaveBitmap(m.Hashes)
	want := []bool{false, true, false}
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("HaveBitmap = %v, want %v", have, want)
		}
	}
	got, ok := s.Get(m.Hashes[1])
	if !ok || !bytes.Equal(got, blocks[1]) {
		t.Fatal("Get returned wrong block data")
	}
	// The returned copy must not alias store memory.
	got[0]++
	again, _ := s.Get(m.Hashes[1])
	if !bytes.Equal(again, blocks[1]) {
		t.Fatal("Get leaked mutable store memory")
	}
	if !s.Has(m.Hashes[1]) || s.Has(m.Hashes[0]) {
		t.Fatal("Has disagrees with HaveBitmap")
	}
}

func TestStoreCommitAtomicOnPartial(t *testing.T) {
	s := NewStore(Config{})
	blob := SynthPayload(4, 700)
	m := ManifestOf(blob, 256)
	blocks := Split(blob, 256)
	// Stage all but the last block — the severed-mid-image state.
	for i := 0; i < len(blocks)-1; i++ {
		if _, err := s.Put(m.Hashes[i], blocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(m); !errors.Is(err, ErrMissingBlock) {
		t.Fatalf("partial commit: %v", err)
	}
	for i := 0; i < len(blocks)-1; i++ {
		if got := s.RefCount(m.Hashes[i]); got != 0 {
			t.Fatalf("failed commit leaked a reference on block %d (refs=%d)", i, got)
		}
	}
	// Inconsistent manifest is rejected before any reference moves.
	badManifest := Manifest{TotalBytes: 1, BlockSize: 256}
	if err := s.Commit(m, badManifest); err == nil {
		t.Fatal("inconsistent manifest committed")
	}
}

func TestStoreSortedIterationAndRestore(t *testing.T) {
	s := NewStore(Config{})
	blob := SynthPayload(5, 1024)
	m := ManifestOf(blob, 100)
	blocks := Split(blob, 100)
	for i := range blocks {
		if _, err := s.Put(m.Hashes[i], blocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(m); err != nil {
		t.Fatal(err)
	}

	restored := NewStore(Config{})
	var prev Hash
	first := true
	n := 0
	s.ForEachSorted(func(h Hash, refs int64, data []byte) {
		if !first && string(h[:]) <= string(prev[:]) {
			t.Fatal("ForEachSorted out of order")
		}
		prev, first = h, false
		n++
		if err := restored.Restore(h, refs, data); err != nil {
			t.Fatal(err)
		}
	})
	if n != s.Len() {
		t.Fatalf("iterated %d of %d blocks", n, s.Len())
	}
	if got, want := restored.Stats(), s.Stats(); got != want {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}
	// A restore round trip is idempotent in content: every block equal.
	s.ForEachSorted(func(h Hash, refs int64, data []byte) {
		got, ok := restored.Get(h)
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("restored block %s differs", h.Short())
		}
		if restored.RefCount(h) != refs {
			t.Fatalf("restored block %s refcount differs", h.Short())
		}
	})

	// Restore guards: duplicate, corrupt, negative, oversized.
	h0, d0 := m.Hashes[0], blocks[0]
	if err := restored.Restore(h0, 1, d0); err == nil {
		t.Fatal("duplicate restore accepted")
	}
	if err := restored.Restore(HashBlock([]byte("x")), 1, []byte("y")); !errors.Is(err, ErrHashMismatch) {
		t.Fatalf("corrupt restore: %v", err)
	}
	if err := restored.Restore(h0, -1, d0); err == nil {
		t.Fatal("negative refcount accepted")
	}
	if err := restored.Restore(h0, 1, nil); err == nil {
		t.Fatal("empty restored block accepted")
	}
}

func TestSynthPayloadDeterministic(t *testing.T) {
	a := SynthPayload(42, 1000)
	b := SynthPayload(42, 1000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different payloads")
	}
	if bytes.Equal(a, SynthPayload(43, 1000)) {
		t.Fatal("different seeds produced identical payloads")
	}
	// A prefix request yields the same leading bytes (stream property is
	// not required, but length must be exact and content non-trivial).
	if len(SynthPayload(42, 37)) != 37 {
		t.Fatal("wrong length")
	}
	if SynthPayload(42, 0) != nil || SynthPayload(42, -5) != nil {
		t.Fatal("degenerate lengths must return nil")
	}
	// Not all-zero (the all-zero payload would make dedup degenerate).
	zero := true
	for _, c := range a {
		if c != 0 {
			zero = false
			break
		}
	}
	if zero {
		t.Fatal("SynthPayload returned all zeros")
	}
}
