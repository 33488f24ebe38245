package server

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bees/internal/blockstore"
	"bees/internal/features"
	"bees/internal/telemetry"
	"bees/internal/wal"
)

func walSet(seed uint64) *features.BinarySet {
	return &features.BinarySet{Descriptors: []features.Descriptor{
		{seed, seed * 3, seed * 7, seed * 31},
		{^seed, seed << 8, seed ^ 0xAAAA, seed + 99},
	}}
}

func walItem(seed uint64, bytes int) UploadItem {
	return UploadItem{Set: walSet(seed), Meta: UploadMeta{
		GroupID: int64(seed), Lat: float64(seed) / 10, Lon: -float64(seed) / 5, Bytes: bytes,
	}}
}

// newWALServer builds a server appending to a fresh WAL in dir.
func newWALServer(t *testing.T, dir string, blockSize int) *Server {
	t.Helper()
	s := NewWithConfig(Config{BlockSize: blockSize})
	l, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachWAL(l)
	return s
}

func TestWALRecordRoundTrip(t *testing.T) {
	items := []UploadItem{walItem(1, 100), {Meta: UploadMeta{GroupID: 2, Bytes: 50}}}
	rec, err := decodeWALRecord(encodeCommitRecord(7, []int64{42, 43}, items, nil))
	if err != nil {
		t.Fatal(err)
	}
	up := rec.(*walCommit)
	if up.nonce != 7 || !reflect.DeepEqual(up.ids, []int64{42, 43}) || len(up.items) != 2 {
		t.Fatalf("inline commit round trip: %+v", up)
	}
	if up.items[0].Set.Len() != 2 || up.items[1].Set != nil {
		t.Fatalf("inline commit set round trip: %v, %v", up.items[0].Set, up.items[1].Set)
	}
	if up.items[0].Meta != items[0].Meta {
		t.Fatalf("inline commit meta round trip: %+v", up.items[0].Meta)
	}
	// Inline items carry no pinnable manifest.
	for _, m := range up.manifests {
		if m.BlockSize != 0 {
			t.Fatalf("inline item decoded a manifest: %+v", m)
		}
	}

	data := []byte("block payload")
	h := blockstore.HashBlock(data)
	rec, err = decodeWALRecord(encodeBlockPutRecord(h, data))
	if err != nil {
		t.Fatal(err)
	}
	bp := rec.(*walBlockPut)
	if bp.hash != h || string(bp.data) != string(data) {
		t.Fatalf("blockput round trip: %+v", bp)
	}

	ups := []ManifestUpload{{
		Set:  walSet(3),
		Meta: UploadMeta{GroupID: 3, Bytes: len(data)},
		Manifest: blockstore.Manifest{
			TotalBytes: int64(len(data)), BlockSize: 4096, Hashes: []blockstore.Hash{h},
		},
	}}
	upItems, manifests := splitUploads(ups)
	rec, err = decodeWALRecord(encodeCommitRecord(9, []int64{50}, upItems, manifests))
	if err != nil {
		t.Fatal(err)
	}
	cm := rec.(*walCommit)
	if cm.nonce != 9 || !reflect.DeepEqual(cm.ids, []int64{50}) || len(cm.items) != 1 {
		t.Fatalf("manifest commit round trip: %+v", cm)
	}
	if !reflect.DeepEqual(cm.manifests, manifests) {
		t.Fatalf("manifest round trip: %+v", cm.manifests)
	}
}

func TestWALRecordDecodeRejects(t *testing.T) {
	good := encodeCommitRecord(1, []int64{0}, []UploadItem{walItem(1, 10)}, nil)
	cases := map[string][]byte{
		"empty":        {},
		"unknown type": {99},
		"truncated":    good[:len(good)-3],
		"trailing":     append(append([]byte(nil), good...), 0xFF),
	}
	for name, p := range cases {
		if _, err := decodeWALRecord(p); !errors.Is(err, errBadWALRecord) {
			t.Fatalf("%s: err = %v, want errBadWALRecord", name, err)
		}
	}
}

// TestNewUploadNonceFreshAfterRecover: a restarted process draws nonces
// its predecessor's log does not hold. Recover refills the dedup window
// from the WAL, so a nonce an earlier process already used would answer
// a new upload with the old IDs and store nothing.
func TestNewUploadNonceFreshAfterRecover(t *testing.T) {
	walDir := t.TempDir()
	recoverWAL := func() *Server {
		t.Helper()
		s, _, err := Recover(RecoverConfig{WAL: wal.Config{Dir: walDir}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var ids [2][]int64
	for i := range ids {
		s := recoverWAL()
		var err error
		if ids[i], err = s.UploadItems(s.NewUploadNonce(), []UploadItem{walItem(uint64(i+1), 100)}); err != nil {
			t.Fatal(err)
		}
		s.WAL().Close()
	}
	if reflect.DeepEqual(ids[0], ids[1]) {
		t.Fatalf("the restarted process's upload got its predecessor's IDs %v", ids[1])
	}
	s := recoverWAL()
	defer s.WAL().Close()
	if got := s.Stats().Images; got != 2 {
		t.Fatalf("recovered %d images after two processes uploaded one each, want 2", got)
	}
}

// TestRecoverFromWALOnly: no snapshot at all — the WAL alone rebuilds
// uploads, blocks, commits, and the nonce window.
func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	s := newWALServer(t, walDir, 4096)

	ids1, err := s.UploadItems(11, []UploadItem{walItem(1, 100), walItem(2, 200)})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("some block bytes")
	h := blockstore.HashBlock(data)
	if stored, err := s.StageBlock(h, data); err != nil || !stored {
		t.Fatalf("StageBlock: %v, %v", stored, err)
	}
	ids2, err := s.CommitManifestsNonce(12, []ManifestUpload{{
		Set:  walSet(5),
		Meta: UploadMeta{GroupID: 5, Bytes: len(data)},
		Manifest: blockstore.Manifest{
			TotalBytes: int64(len(data)), BlockSize: 4096, Hashes: []blockstore.Hash{h},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := s.Stats()
	if err := s.WAL().Close(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	r, st, err := Recover(RecoverConfig{
		Server: Config{BlockSize: 4096, Telemetry: reg},
		WAL:    wal.Config{Dir: walDir},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotGeneration != 0 || st.WALRecords != 3 || st.WALBadRecords != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if got := r.Stats(); got != want {
		t.Fatalf("recovered Stats %+v, want %+v", got, want)
	}
	if refs := r.Blocks().RefCount(h); refs != 1 {
		t.Fatalf("block refs = %d, want 1", refs)
	}
	// Retried nonces replay the original IDs from the reseeded window.
	gotIDs, err := r.UploadItems(11, []UploadItem{walItem(1, 100), walItem(2, 200)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids1 {
		if gotIDs[i] != ids1[i] {
			t.Fatalf("nonce 11 replay: %v, want %v", gotIDs, ids1)
		}
	}
	gotIDs, err = r.CommitManifestsNonce(12, nil)
	if err != nil || gotIDs[0] != ids2[0] {
		t.Fatalf("nonce 12 replay: %v, %v (want %v)", gotIDs, err, ids2)
	}
	if r.Stats() != want {
		t.Fatalf("replays mutated state: %+v", r.Stats())
	}
	if g := reg.Gauge("server.recover.wal_records").Value(); g != 3 {
		t.Fatalf("server.recover.wal_records = %v", g)
	}
	r.WAL().Close()
}

// TestRecoverSnapshotPlusTail: records appended after a checkpoint
// replay on top of the snapshot; records covered by it do not double-
// apply even though the rotate-before-snapshot window leaves them in
// both places.
func TestRecoverSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snap := filepath.Join(dir, "state.snap")
	s := newWALServer(t, walDir, 0)

	if _, err := s.UploadItems(21, []UploadItem{walItem(1, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UploadItems(22, []UploadItem{walItem(2, 200), walItem(3, 300)}); err != nil {
		t.Fatal(err)
	}
	want := s.Stats()
	s.WAL().Close()

	r, st, err := Recover(RecoverConfig{
		SnapshotPath: snap,
		WAL:          wal.Config{Dir: walDir},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotGeneration != 1 {
		t.Fatalf("generation = %d, want 1", st.SnapshotGeneration)
	}
	if got := r.Stats(); got != want {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	// Both nonces still dedup: 21 from... the snapshot does not hold
	// nonces, but its record was truncated by the checkpoint, so only 22
	// must hit; 21 was acked pre-checkpoint and is past retry horizon.
	ids, err := r.UploadItems(22, nil)
	if err != nil || len(ids) != 2 {
		t.Fatalf("nonce 22 replay: %v, %v", ids, err)
	}
	if r.Stats() != want {
		t.Fatalf("replay mutated state")
	}
	r.WAL().Close()
}

// TestRecoverSnapshotFallback: a corrupt primary snapshot falls back to
// the retained ".1" generation, and the WAL tail still replays.
func TestRecoverSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snap := filepath.Join(dir, "state.snap")
	s := newWALServer(t, walDir, 0)

	if _, err := s.UploadItems(31, []UploadItem{walItem(1, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UploadItems(32, []UploadItem{walItem(2, 200)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(snap); err != nil { // retains gen 1 as .1
		t.Fatal(err)
	}
	if _, err := s.UploadItems(33, []UploadItem{walItem(3, 300)}); err != nil {
		t.Fatal(err)
	}
	want := s.Stats()
	s.WAL().Close()

	// Corrupt the primary snapshot: truncate it mid-stream (the torn
	// shape a dying disk leaves; LoadSnapshot detects it as errBadSnapshot).
	fi, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(snap, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	r, st, err := Recover(RecoverConfig{
		Server:       Config{Telemetry: reg},
		SnapshotPath: snap,
		WAL:          wal.Config{Dir: walDir},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotGeneration != 2 {
		t.Fatalf("generation = %d, want 2 (fallback)", st.SnapshotGeneration)
	}
	// Truncation lags one checkpoint, so the WAL still holds every
	// record since the ".1" generation: fallback recovery is lossless.
	if got := r.Stats(); got != want {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	if g := reg.Gauge("server.recover.snapshot_generation").Value(); g != 2 {
		t.Fatalf("gauge generation = %v", g)
	}
	r.WAL().Close()

	// Both generations corrupt → startup fails.
	if err := os.WriteFile(snap+".1", []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(RecoverConfig{SnapshotPath: snap, WAL: wal.Config{Dir: walDir}}); err == nil {
		t.Fatal("recovery with both snapshot generations corrupt succeeded")
	}
}

// TestRecoverTornTail: a torn final record is truncated and counted;
// the un-acked frame is not recovered and its nonce is NOT a dedup hit.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	s := newWALServer(t, walDir, 0)
	if _, err := s.UploadItems(41, []UploadItem{walItem(1, 100)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UploadItems(42, []UploadItem{walItem(2, 200)}); err != nil {
		t.Fatal(err)
	}
	want1 := s.Stats()
	s.WAL().Close()

	// Tear the tail: nonce 42's record loses its last bytes.
	ents, err := os.ReadDir(walDir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("wal dir: %v, %v", ents, err)
	}
	seg := filepath.Join(walDir, ents[0].Name())
	fi, _ := os.Stat(seg)
	if err := os.Truncate(seg, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	r, st, err := Recover(RecoverConfig{
		Server: Config{Telemetry: reg},
		WAL:    wal.Config{Dir: walDir},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.WALRecords != 1 || st.WALTruncatedBytes == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if got := r.Stats(); got.Images != 1 || got.BytesReceived != 100 {
		t.Fatalf("recovered %+v from torn log (crash-free was %+v)", got, want1)
	}
	// Nonce 42 was never acked (its record is torn): the retry must be a
	// fresh apply, not a dedup hit.
	before := reg.Counter("server.upload.dedup_hits").Value()
	ids, err := r.UploadItems(42, []UploadItem{walItem(2, 200)})
	if err != nil || len(ids) != 1 {
		t.Fatal(err)
	}
	if reg.Counter("server.upload.dedup_hits").Value() != before {
		t.Fatal("torn un-acked frame was re-acknowledged as a dedup hit")
	}
	if got := r.Stats(); got != want1 {
		t.Fatalf("after retry: %+v, want %+v", got, want1)
	}
	r.WAL().Close()
}

// TestRecoverBadRecordSkipped: a record whose checksum passes but whose
// payload is garbage (version skew) is counted and skipped, not fatal.
func TestRecoverBadRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	l, err := wal.Open(wal.Config{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(encodeCommitRecord(51, []int64{0}, []UploadItem{walItem(1, 10)}, nil)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte{250, 1, 2, 3}); err != nil { // unknown record type
		t.Fatal(err)
	}
	if err := l.Append(encodeCommitRecord(52, []int64{1}, []UploadItem{walItem(2, 20)}, nil)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	r, st, err := Recover(RecoverConfig{WAL: wal.Config{Dir: walDir}})
	if err != nil {
		t.Fatal(err)
	}
	if st.WALRecords != 3 || st.WALBadRecords != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if got := r.Stats(); got.Images != 2 || got.BytesReceived != 30 {
		t.Fatalf("recovered %+v", got)
	}
	r.WAL().Close()
}

// TestRecoverRetiredKindsCountedBad: well-formed records of the retired
// kinds 1 (whole-image upload) and 3 (manifest commit) are counted as bad
// records and applied to nothing — no image, no pin, no dedup entry —
// while the kind-4 commit beside them recovers.
func TestRecoverRetiredKindsCountedBad(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(wal.Config{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	blob := blockstore.SynthPayload(61, 700)
	m := blockstore.ManifestOf(blob, 512)
	for j, part := range blockstore.Split(blob, 512) {
		if err := l.Append(encodeBlockPutRecord(m.Hashes[j], part)); err != nil {
			t.Fatal(err)
		}
	}
	ups := []ManifestUpload{{Set: walSet(3), Meta: UploadMeta{GroupID: 3, Bytes: 700}, Manifest: m}}
	for _, p := range [][]byte{
		retiredUploadRecord(61, 0, []UploadItem{walItem(1, 10)}),
		retiredCommitRecord(62, 1, ups),
		encodeCommitRecord(63, []int64{0}, []UploadItem{walItem(2, 20)}, nil),
	} {
		if _, err := decodeWALRecord(p); (p[0] == recCommit) != (err == nil) {
			t.Fatalf("kind %d: decode err = %v", p[0], err)
		}
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	r, st, err := Recover(RecoverConfig{WAL: wal.Config{Dir: walDir}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.WAL().Close()
	if st.WALRecords != len(m.Hashes)+3 || st.WALBadRecords != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if got := r.Stats(); got.Images != 1 || got.BytesReceived != 20 {
		t.Fatalf("recovered %+v, want only the kind-4 commit", got)
	}
	for _, h := range m.Hashes {
		if refs := r.Blocks().RefCount(h); refs != 0 {
			t.Fatalf("retired commit pinned block %s (%d refs)", h.Short(), refs)
		}
	}
	if got := r.DedupEntries(); len(got) != 1 || got[0].Nonce != 63 {
		t.Fatalf("dedup window %+v, want only nonce 63", got)
	}
}

// TestDurabilityPoison: a WAL append failure refuses the frame and all
// later mutations — the server never acks state the disk did not take.
func TestDurabilityPoison(t *testing.T) {
	dir := t.TempDir()
	s := NewWithConfig(Config{})
	l, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachWAL(l)
	if _, err := s.UploadItems(61, []UploadItem{walItem(1, 100)}); err != nil {
		t.Fatal(err)
	}
	// Close the log out from under the server: the next append fails.
	l.Close()
	if _, err := s.UploadItems(62, []UploadItem{walItem(2, 200)}); !errors.Is(err, ErrDurability) {
		t.Fatalf("append-failed upload err = %v, want ErrDurability", err)
	}
	if _, err := s.UploadItems(63, []UploadItem{walItem(3, 300)}); !errors.Is(err, ErrDurability) {
		t.Fatalf("later upload err = %v, want ErrDurability", err)
	}
	if _, err := s.StageBlock(blockstore.HashBlock([]byte("x")), []byte("x")); !errors.Is(err, ErrDurability) {
		t.Fatalf("later stage err = %v, want ErrDurability", err)
	}
	if _, err := s.CommitManifestsNonce(64, nil); !errors.Is(err, ErrDurability) {
		t.Fatalf("later commit err = %v, want ErrDurability", err)
	}
	// The failed frame's nonce must not dedup-hit: it was never acked.
	if _, ok := s.dedup.ids[62]; ok {
		t.Fatal("un-acked frame recorded in dedup window")
	}
}
