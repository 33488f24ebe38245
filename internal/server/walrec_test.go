package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bees/internal/blockstore"
	"bees/internal/features"
	"bees/internal/index"
	"bees/internal/wal"
	"bees/internal/wire"
)

var updateWALCorpus = flag.Bool("update-wal-corpus", false,
	"rewrite the checked-in FuzzDecodeWALRecord seed corpus")

// retiredUploadRecord writes a kind-1 record, the retired whole-image
// upload record: a firstID, IDs contiguous from it, no manifests. The
// decoder rejects the kind.
func retiredUploadRecord(nonce uint64, firstID index.ImageID, items []UploadItem) []byte {
	b := []byte{1}
	b = binary.LittleEndian.AppendUint64(b, nonce)
	b = binary.LittleEndian.AppendUint64(b, uint64(firstID))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(items)))
	for i := range items {
		b = appendMeta(b, &items[i].Meta)
		b = wire.AppendSet(b, items[i].Set)
	}
	return b
}

// retiredCommitRecord writes a kind-3 record, the retired manifest
// commit record: a firstID instead of per-item IDs. The decoder rejects
// the kind.
func retiredCommitRecord(nonce uint64, firstID int64, ups []ManifestUpload) []byte {
	b := []byte{3}
	b = binary.LittleEndian.AppendUint64(b, nonce)
	b = binary.LittleEndian.AppendUint64(b, uint64(firstID))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ups)))
	for i := range ups {
		b = appendMeta(b, &ups[i].Meta)
		b = wire.AppendSet(b, ups[i].Set)
		b = binary.LittleEndian.AppendUint64(b, uint64(ups[i].Manifest.TotalBytes))
		b = binary.LittleEndian.AppendUint64(b, uint64(ups[i].Manifest.BlockSize))
		b = wire.AppendHashes(b, ups[i].Manifest.Hashes)
	}
	return b
}

// walCorpus returns the FuzzDecodeWALRecord seeds by name: one valid
// record per kind ("valid-*"), a well-formed record of each retired kind
// ("rejected-*"), truncations of each, and hostile counts that announce
// far more than the payload holds.
func walCorpus() map[string][]byte {
	data := blockstore.SynthPayload(7, 700)
	m := blockstore.ManifestOf(data, 512)
	ups := []ManifestUpload{{Set: walSet(3), Meta: UploadMeta{GroupID: 3, Lat: 1.5, Bytes: 700}, Manifest: m}}
	items, manifests := splitUploads(ups)
	inline := []UploadItem{walItem(1, 100), {Meta: UploadMeta{GroupID: 2, Bytes: 50}}}
	parts := blockstore.Split(data, 512)
	seeds := map[string][]byte{
		"rejected-kind1":       retiredUploadRecord(11, 4, inline),
		"valid-kind2":          encodeBlockPutRecord(m.Hashes[0], parts[0]),
		"rejected-kind3":       retiredCommitRecord(12, 6, ups),
		"valid-kind4-inline":   encodeCommitRecord(13, []int64{9, 2}, inline, nil),
		"valid-kind4-manifest": encodeCommitRecord(14, []int64{30}, items, manifests),
	}
	for _, name := range []string{"rejected-kind1", "valid-kind2", "rejected-kind3", "valid-kind4-inline", "valid-kind4-manifest"} {
		p := seeds[name]
		_, kind, _ := strings.Cut(name, "-")
		seeds["trunc-"+kind] = p[:len(p)/2]
	}
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	nonce := make([]byte, 8)
	meta := make([]byte, 32)
	seeds["hostile-items"] = cat([]byte{recCommit}, nonce, u32(1<<20), []byte{0})
	seeds["hostile-legacy-items"] = cat([]byte{3}, nonce, nonce, u32(^uint32(0)), meta)
	seeds["hostile-hashes"] = cat([]byte{recCommit}, nonce, u32(1), nonce, meta, u32(0),
		make([]byte, 16), u32(1<<20), make([]byte, 8))
	seeds["hostile-descriptors"] = cat([]byte{recCommit}, nonce, u32(1), nonce, meta, u32(1<<16),
		make([]byte, 20))
	return seeds
}

func walCorpusDir() string {
	return filepath.Join("testdata", "fuzz", "FuzzDecodeWALRecord")
}

// TestWALRecordFuzzCorpus maintains the checked-in seed corpus: every
// "valid-*" seed must still decode, and every other seed must be
// rejected with errBadWALRecord. Regenerate after a format change with:
//
//	go test ./internal/server -run TestWALRecordFuzzCorpus -update-wal-corpus
func TestWALRecordFuzzCorpus(t *testing.T) {
	if *updateWALCorpus {
		if err := os.MkdirAll(walCorpusDir(), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, p := range walCorpus() {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(p)))
			if err := os.WriteFile(filepath.Join(walCorpusDir(), name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(walCorpusDir())
	if err != nil || len(entries) == 0 {
		t.Fatalf("missing seed corpus (run with -update-wal-corpus): %v", err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(walCorpusDir(), e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, quoted, ok := bytes.Cut(data, []byte("[]byte("))
		if !ok {
			t.Fatalf("%s: not in go fuzz corpus format", e.Name())
		}
		raw, err := strconv.Unquote(string(bytes.TrimRight(bytes.TrimSpace(quoted), ")")))
		if err != nil {
			t.Fatalf("%s: bad corpus quoting: %v", e.Name(), err)
		}
		_, err = decodeWALRecord([]byte(raw))
		if strings.HasPrefix(e.Name(), "valid-") {
			if err != nil {
				t.Errorf("%s: checked-in valid record no longer decodes: %v", e.Name(), err)
			}
		} else if !errors.Is(err, errBadWALRecord) {
			t.Errorf("%s: err = %v, want errBadWALRecord", e.Name(), err)
		}
	}
}

// TestWALRecordHostileCountsDoNotAllocate pins the decode-time bound: a
// count the rest of the payload cannot hold is rejected before anything
// is allocated, so a tiny record cannot demand megabytes.
func TestWALRecordHostileCountsDoNotAllocate(t *testing.T) {
	for name, p := range walCorpus() {
		if !strings.HasPrefix(name, "hostile-") {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeWALRecord(p)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errBadWALRecord) {
			t.Fatalf("%s: err = %v, want errBadWALRecord", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("%s: a %d-byte record allocated %d bytes", name, len(p), got)
		}
	}
}

// FuzzDecodeWALRecord feeds arbitrary payloads to the WAL record
// decoder. The invariants: never panic, fail only with errBadWALRecord,
// and an accepted commit record re-encodes to the same bytes.
func FuzzDecodeWALRecord(f *testing.F) {
	for _, p := range walCorpus() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := decodeWALRecord(p)
		if err != nil {
			if !errors.Is(err, errBadWALRecord) {
				t.Fatalf("non-errBadWALRecord failure: %v", err)
			}
			return
		}
		if c, ok := rec.(*walCommit); ok {
			if again := encodeCommitRecord(c.nonce, c.ids, c.items, c.manifests); !bytes.Equal(again, p) {
				t.Fatalf("accepted record re-encodes differently:\n got %x\nwant %x", again, p)
			}
		}
	})
}

// serverState is everything recovery and the entry points must agree
// on, gathered for one comparison.
type serverState struct {
	Stats   Stats
	Uploads []index.ImageID
	Metas   []UploadMeta
	NextID  int64
	Refs    map[blockstore.Hash]int64
	Dedup   []DedupEntry
	Sims    []float64
}

func stateOf(s *Server, query []*features.BinarySet) serverState {
	return serverState{
		Stats:   s.Stats(),
		Uploads: s.Uploads(),
		Metas:   s.UploadedMetas(),
		NextID:  s.NextID(),
		Refs:    s.Blocks().RefCounts(),
		Dedup:   s.DedupEntries(),
		Sims:    s.QueryMaxBatch(query),
	}
}

// TestRecoverMixedLog recovers a log of every record shape the server
// writes — block puts, inline and manifest commits, nonce-less and under
// router-assigned IDs, on both sides of a snapshot cut — and requires the
// recovered server to equal the live one that applied the same commits.
func TestRecoverMixedLog(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	_, sets := batchSets(t, 310, 6)
	live := NewDefault()
	l, err := wal.Open(wal.Config{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	logRec := func(p []byte) {
		t.Helper()
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	item := func(i, n int) UploadItem {
		return UploadItem{Set: sets[i], Meta: UploadMeta{GroupID: int64(i), Lat: float64(i) / 3, Lon: -float64(i), Bytes: n}}
	}
	// staged stages a blob's blocks on the live server and logs each put.
	staged := func(i, n int) ManifestUpload {
		t.Helper()
		blob := blockstore.SynthPayload(uint64(i), n)
		m := blockstore.ManifestOf(blob, 512)
		for j, part := range blockstore.Split(blob, 512) {
			if _, err := live.StageBlock(m.Hashes[j], part); err != nil {
				t.Fatal(err)
			}
			logRec(encodeBlockPutRecord(m.Hashes[j], part))
		}
		it := item(i, n)
		return ManifestUpload{Set: it.Set, Meta: it.Meta, Manifest: m}
	}
	must := func(ids []int64, err error) []int64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}

	// commitRec logs a commit of ups under the IDs the live server gave.
	commitRec := func(nonce uint64, ids []int64, ups []ManifestUpload) {
		t.Helper()
		items, manifests := splitUploads(ups)
		logRec(encodeCommitRecord(nonce, ids, items, manifests))
	}

	// Before the cut: an inline upload and a manifest commit.
	items := []UploadItem{item(0, 100), item(1, 200)}
	ids := must(live.UploadItems(11, items))
	logRec(encodeCommitRecord(11, ids, items, nil))
	ups := []ManifestUpload{staged(2, 900), staged(3, 700)}
	commitRec(12, must(live.CommitManifestsNonce(12, ups)), ups)
	// The records above stay in the log as well, as the rotate-before-
	// snapshot window of a checkpoint leaves them.
	var snap bytes.Buffer
	if err := live.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(walDir, checkpointName), snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// After the cut: a shard commit under an out-of-order ID, then a
	// nonce-less inline upload and another manifest commit.
	shard := []ManifestUpload{staged(4, 600)}
	commitRec(13, must(live.ApplyShardCommit(13, []int64{40}, shard)), shard)
	items = []UploadItem{item(5, 300)}
	logRec(encodeCommitRecord(0, must(live.UploadItems(0, items)), items, nil))
	ups = []ManifestUpload{staged(2, 900)} // shares every block with nonce 12
	commitRec(15, must(live.CommitManifestsNonce(15, ups)), ups)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, st, err := Recover(RecoverConfig{WAL: wal.Config{Dir: walDir}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.WAL().Close()
	if st.SnapshotGeneration != 1 || st.WALBadRecords != 0 {
		t.Fatalf("recover stats %+v", st)
	}
	if got, want := stateOf(r, sets), stateOf(live, sets); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state\n%+v\nwant the live server's\n%+v", got, want)
	}
}

// TestCommitEntryPointsAgree feeds the same images through the three
// exported commit entry points — inline, by manifest, and under explicit
// IDs equal to the ones allocation gives — and requires identical state.
func TestCommitEntryPointsAgree(t *testing.T) {
	_, sets := batchSets(t, 311, 5)
	sizes := []int{900, 300, 1500, 512, 77}
	items := make([]UploadItem, len(sets))
	for i := range sets {
		items[i] = UploadItem{Set: sets[i], Meta: UploadMeta{GroupID: int64(i % 2), Lat: float64(i), Lon: 2, Bytes: sizes[i]}}
	}
	manifestUploads := func(s *Server) []ManifestUpload {
		ups := make([]ManifestUpload, len(items))
		for i, it := range items {
			blob := blockstore.SynthPayload(uint64(i), it.Meta.Bytes)
			m := blockstore.ManifestOf(blob, 512)
			for j, part := range blockstore.Split(blob, 512) {
				if _, err := s.StageBlock(m.Hashes[j], part); err != nil {
					t.Fatal(err)
				}
			}
			ups[i] = ManifestUpload{Set: it.Set, Meta: it.Meta, Manifest: m}
		}
		return ups
	}
	chunks := [][2]int{{0, 2}, {2, 5}}
	entryPoints := map[string]func(s *Server, nonce uint64, lo, hi int) ([]int64, error){
		"UploadItems": func(s *Server, nonce uint64, lo, hi int) ([]int64, error) {
			return s.UploadItems(nonce, items[lo:hi])
		},
		"CommitManifestsNonce": func(s *Server, nonce uint64, lo, hi int) ([]int64, error) {
			return s.CommitManifestsNonce(nonce, manifestUploads(s)[lo:hi])
		},
		"ApplyShardCommit": func(s *Server, nonce uint64, lo, hi int) ([]int64, error) {
			ids := make([]int64, hi-lo)
			for i := range ids {
				ids[i] = int64(lo + i)
			}
			return s.ApplyShardCommit(nonce, ids, manifestUploads(s)[lo:hi])
		},
	}
	var names []string
	for name := range entryPoints {
		names = append(names, name)
	}
	sort.Strings(names)
	var want serverState
	for k, name := range names {
		s := NewDefault()
		for c, ch := range chunks {
			ids, err := entryPoints[name](s, uint64(c+1), ch[0], ch[1])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(ids) != ch[1]-ch[0] || ids[0] != int64(ch[0]) {
				t.Fatalf("%s chunk %d: ids %v", name, c, ids)
			}
		}
		got := stateOf(s, sets)
		// Block refcounts exist only on the manifest paths.
		got.Refs = nil
		if k == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s state\n%+v\ndiffers from %s\n%+v", name, got, names[0], want)
		}
	}
}
