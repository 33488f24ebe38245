package server

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bees/internal/blockstore"
	"bees/internal/wal"
)

func TestSnapshotRoundTrip(t *testing.T) {
	srv := NewDefault()
	_, sets := batchSets(t, 310, 4)
	srv.SeedIndex(sets[0], UploadMeta{GroupID: 100})
	for i := 1; i < 4; i++ {
		upload(t, srv, sets[i], UploadMeta{GroupID: int64(i), Bytes: 100 * i, Lat: float64(i), Lon: -float64(i)})
	}

	var buf bytes.Buffer
	if err := srv.SaveSnapshot(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}

	restored := NewDefault()
	if err := restored.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("load: %v", err)
	}

	// Counters restored.
	st := restored.Stats()
	if st.Images != 3 || st.BytesReceived != 600 {
		t.Fatalf("restored stats: %+v", st)
	}
	// Index restored: every uploaded/seeded image is still queryable.
	for i := 0; i < 4; i++ {
		if sim := queryMax(restored, sets[i]); sim < 0.9 {
			t.Fatalf("image %d not queryable after restore: sim=%v", i, sim)
		}
	}
	// Upload metadata restored (coverage accounting).
	metas := restored.UploadedMetas()
	if len(metas) != 3 || metas[0].Lat != 1 || metas[2].Bytes != 300 {
		t.Fatalf("restored metas: %+v", metas)
	}
	// New uploads continue with fresh IDs.
	id := upload(t, restored, sets[0], UploadMeta{GroupID: 9})
	if int64(id) < 4 {
		t.Fatalf("restored nextID collides: %d", id)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	srv := NewDefault()
	_, sets := batchSets(t, 311, 2)
	upload(t, srv, sets[0], UploadMeta{GroupID: 5, Bytes: 42})
	path := filepath.Join(t.TempDir(), "state.bees")
	if err := srv.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	restored := NewDefault()
	if err := restored.LoadSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if restored.Stats().Images != 1 {
		t.Fatal("file round trip lost uploads")
	}
}

func TestLoadSnapshotMissingFileIsFreshStart(t *testing.T) {
	srv := NewDefault()
	if err := srv.LoadSnapshotFile(filepath.Join(t.TempDir(), "absent")); err != nil {
		t.Fatalf("missing snapshot should not error: %v", err)
	}
	if srv.Stats().Images != 0 {
		t.Fatal("fresh server should be empty")
	}
}

func TestLoadSnapshotRejectsDirtyServer(t *testing.T) {
	srv := NewDefault()
	_, sets := batchSets(t, 312, 1)
	upload(t, srv, sets[0], UploadMeta{})
	var buf bytes.Buffer
	if err := srv.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("loading into a non-empty server should fail")
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("BEESgarbage-after-magic"),
		append([]byte("BEES"), make([]byte, 8)...), // version 0
	} {
		srv := NewDefault()
		if err := srv.LoadSnapshot(bytes.NewReader(data)); err == nil {
			t.Fatalf("garbage %q accepted", data)
		}
	}
}

func TestSnapshotEmptyServer(t *testing.T) {
	srv := NewDefault()
	var buf bytes.Buffer
	if err := srv.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewDefault()
	if err := restored.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Stats().Images != 0 {
		t.Fatal("empty snapshot should restore empty")
	}
}

// failAfterWriter fails every write once n bytes have passed through,
// simulating a disk that fills mid-snapshot.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.written += len(p)
	return len(p), nil
}

// TestSaveSnapshotPropagatesWriteError is the regression test for the
// swallowed writeU64 error: a writer that fails mid-stream must surface
// the failure from SaveSnapshot, not silently produce a short snapshot.
func TestSaveSnapshotPropagatesWriteError(t *testing.T) {
	srv := NewDefault()
	_, sets := batchSets(t, 313, 4)
	// Enough descriptor payload to overflow bufio's 4 KiB buffer so the
	// failure hits a mid-stream write, not just the final Flush.
	for i := range sets {
		upload(t, srv, sets[i], UploadMeta{GroupID: int64(i), Bytes: 10})
	}
	var full bytes.Buffer
	if err := srv.SaveSnapshot(&full); err != nil {
		t.Fatal(err)
	}
	if full.Len() <= 4096 {
		t.Fatalf("test snapshot too small (%d bytes) to exercise mid-stream writes", full.Len())
	}
	for _, limit := range []int{0, 10, 4096, full.Len() - 1} {
		if err := srv.SaveSnapshot(&failAfterWriter{n: limit}); err == nil {
			t.Fatalf("write failure after %d bytes was swallowed", limit)
		}
	}
}

// handcraftedSnapshot builds a minimal valid snapshot whose counters are
// all zero but which carries one index entry — the state the freshness
// check used to miss.
func handcraftedSnapshot(t *testing.T) []byte {
	t.Helper()
	return handcraftedVersion(t, snapshotVersion)
}

// handcraftedVersion writes handcraftedSnapshot's state in the layout of
// the given version: version 1 ended after the upload history, version 2
// appends the block store section.
func handcraftedVersion(t *testing.T, version uint64) []byte {
	t.Helper()
	buf := []byte("BEES")
	w := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	w(version)
	w(0) // received
	w(0) // nextID
	w(1) // one index entry
	w(7) // id
	w(3) // group
	w(math.Float64bits(1.5))
	w(math.Float64bits(-2.5))
	w(1) // one descriptor
	for i := 0; i < 4; i++ {
		w(uint64(i))
	}
	w(0) // no uploads
	if version >= 2 {
		w(0) // no blocks
	}
	return buf
}

// TestSnapshotVersion1Rejected: only the current snapshot version loads.
// A version-1 stream fails with errBadSnapshot, and as the primary
// snapshot it sends Recover to the retained ".1" generation.
func TestSnapshotVersion1Rejected(t *testing.T) {
	if err := NewDefault().LoadSnapshot(bytes.NewReader(handcraftedVersion(t, 1))); !errors.Is(err, errBadSnapshot) {
		t.Fatalf("version-1 snapshot: err = %v, want errBadSnapshot", err)
	}

	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snap := filepath.Join(dir, "state.snap")
	s := newWALServer(t, walDir, 0)
	for n := uint64(1); n <= 2; n++ {
		if _, err := s.UploadItems(n, []UploadItem{walItem(n, 100)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(snap); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Stats()
	s.WAL().Close()
	if err := os.WriteFile(snap, handcraftedVersion(t, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	r, st, err := Recover(RecoverConfig{SnapshotPath: snap, WAL: wal.Config{Dir: walDir}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.WAL().Close()
	if st.SnapshotGeneration != 2 {
		t.Fatalf("generation = %d, want 2 (the .1 fallback)", st.SnapshotGeneration)
	}
	if got := r.Stats(); got != want {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
}

// TestLoadSnapshotFreshnessIncludesIndex is the regression test for the
// freshness check ignoring index entries: loading a snapshot twice into
// the same server must fail the second time even when the snapshot
// carries no uploads and a zero nextID.
func TestLoadSnapshotFreshnessIncludesIndex(t *testing.T) {
	snap := handcraftedSnapshot(t)
	srv := NewDefault()
	if err := srv.LoadSnapshot(bytes.NewReader(snap)); err != nil {
		t.Fatalf("first load: %v", err)
	}
	if err := srv.LoadSnapshot(bytes.NewReader(snap)); err == nil {
		t.Fatal("second load into the now-populated server was accepted")
	}
}

// TestLoadSnapshotErrorsWrapBadSnapshot pins the error contract the
// fuzzer relies on: every decode failure is errBadSnapshot.
func TestLoadSnapshotErrorsWrapBadSnapshot(t *testing.T) {
	valid := handcraftedSnapshot(t)
	cases := [][]byte{
		nil,
		[]byte("XX"),
		[]byte("XXXX"),
		valid[:7],             // truncated version
		valid[:len(valid)/2],  // truncated mid-entry
		append([]byte{}, 'B'), // one magic byte
	}
	for _, data := range cases {
		srv := NewDefault()
		err := srv.LoadSnapshot(bytes.NewReader(data))
		if !errors.Is(err, errBadSnapshot) {
			t.Fatalf("load(%d bytes): err = %v, want errBadSnapshot", len(data), err)
		}
	}
}

func TestAutoSave(t *testing.T) {
	srv := NewDefault()
	_, sets := batchSets(t, 314, 1)
	upload(t, srv, sets[0], UploadMeta{GroupID: 1, Bytes: 10})
	path := filepath.Join(t.TempDir(), "auto.bees")
	stop := srv.AutoSave(path, 10*time.Millisecond, t.Logf)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("autosave never wrote a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	restored := NewDefault()
	if err := restored.LoadSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if restored.Stats().Images != 1 {
		t.Fatal("autosaved snapshot lost state")
	}
}

// pinnedSnapshotServer is a small fixed server state: two seeded index
// entries, one manifest upload, and its two blocks.
func pinnedSnapshotServer(t *testing.T) *Server {
	t.Helper()
	s := NewDefault()
	s.SeedIndex(walSet(1), UploadMeta{GroupID: 1, Lat: 0.5, Lon: -0.25})
	s.SeedIndex(walSet(2), UploadMeta{GroupID: 2, Lat: -1, Lon: 2})
	blob := []byte("a payload of two blocks.")
	m := blockstore.ManifestOf(blob, 16)
	for j, part := range blockstore.Split(blob, 16) {
		if _, err := s.StageBlock(m.Hashes[j], part); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.CommitManifestsNonce(5, []ManifestUpload{{
		Set:      walSet(3),
		Meta:     UploadMeta{GroupID: 3, Lat: 1.25, Lon: 7, Bytes: len(blob)},
		Manifest: m,
	}}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSnapshotBytesPinned pins the snapshot stream format byte for byte:
// pinnedSnapshotServer must save exactly testdata/snapshot.golden, and
// the golden bytes must load and re-save identically.
func TestSnapshotBytesPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "snapshot.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := pinnedSnapshotServer(t).SaveSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("snapshot bytes changed\n got %x\nwant %x", got.Bytes(), want)
	}
	loaded := NewDefault()
	if err := loaded.LoadSnapshot(bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	got.Reset()
	if err := loaded.SaveSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("golden snapshot does not re-save identically\n got %x\nwant %x", got.Bytes(), want)
	}
}
