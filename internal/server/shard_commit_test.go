package server

import (
	"path/filepath"
	"reflect"
	"testing"

	"bees/internal/blockstore"
	"bees/internal/diskfault"
	"bees/internal/wal"
)

// shardUpload builds one ManifestUpload whose blocks are staged on the
// server, returning the upload and the staged blob.
func shardUpload(t *testing.T, s *Server, seed uint64, n, blockSize int) ManifestUpload {
	t.Helper()
	blob := blockstore.SynthPayload(seed, n)
	m := blockstore.ManifestOf(blob, blockSize)
	parts := blockstore.Split(blob, blockSize)
	for i, h := range m.Hashes {
		if _, err := s.StageBlock(h, parts[i]); err != nil {
			t.Fatalf("stage seed %d block %d: %v", seed, i, err)
		}
	}
	return ManifestUpload{
		Set:      walSet(seed),
		Meta:     UploadMeta{GroupID: int64(seed), Bytes: n},
		Manifest: m,
	}
}

// ApplyShardCommit applies under explicit, non-contiguous IDs: state,
// NextID horizon, and the nonce window all follow the given IDs, and a
// replay answers from the window without re-applying.
func TestApplyShardCommitExplicitIDs(t *testing.T) {
	s := NewDefault()
	ups := []ManifestUpload{
		shardUpload(t, s, 1, 900, 512),
		shardUpload(t, s, 2, 1400, 512),
	}
	ids, err := s.ApplyShardCommit(71, []int64{5, 9}, ups)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []int64{5, 9}) {
		t.Fatalf("ids %v", ids)
	}
	if got := s.NextID(); got != 10 {
		t.Fatalf("NextID = %d, want 10 (one past the largest)", got)
	}
	if st := s.Stats(); st.Images != 2 || st.BytesReceived != 2300 {
		t.Fatalf("stats %+v", st)
	}
	if got := s.Uploads(); len(got) != 2 || int64(got[0]) != 5 || int64(got[1]) != 9 {
		t.Fatalf("upload history %v", got)
	}
	// Replay: same IDs, no state change.
	before := s.Stats()
	again, err := s.ApplyShardCommit(71, []int64{5, 9}, ups)
	if err != nil || !reflect.DeepEqual(again, []int64{5, 9}) {
		t.Fatalf("replay: %v, %v", again, err)
	}
	if s.Stats() != before {
		t.Fatal("replay mutated state")
	}
	// The indexed entries answer queries under their explicit IDs.
	if _, sim := s.idx.QueryMax(walSet(1)); sim != 1 {
		t.Fatalf("stored set query sim = %v, want 1", sim)
	}

	// Validation: count mismatch and empty both handled.
	if _, err := s.ApplyShardCommit(72, []int64{1}, ups); err == nil {
		t.Fatal("id/upload count mismatch accepted")
	}
	if ids, err := s.ApplyShardCommit(73, nil, nil); err != nil || ids != nil {
		t.Fatalf("empty commit: %v, %v", ids, err)
	}
}

// DedupEntries/SeedDedup round-trip the nonce window in FIFO order —
// the ShardSync path a replacement replica uses.
func TestDedupWindowExportReseed(t *testing.T) {
	s := NewDefault()
	if _, err := s.ApplyShardCommit(11, []int64{3}, []ManifestUpload{shardUpload(t, s, 1, 600, 512)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyShardCommit(12, []int64{7}, []ManifestUpload{shardUpload(t, s, 2, 600, 512)}); err != nil {
		t.Fatal(err)
	}
	entries := s.DedupEntries()
	if len(entries) != 2 || entries[0].Nonce != 11 || entries[1].Nonce != 12 {
		t.Fatalf("entries %+v", entries)
	}
	clone := NewDefault()
	for _, e := range entries {
		clone.SeedDedup(e.Nonce, e.IDs)
	}
	clone.SeedDedup(0, []int64{99}) // nonce 0 is never recorded
	if got := clone.DedupEntries(); !reflect.DeepEqual(got, entries) {
		t.Fatalf("reseeded window %+v, want %+v", got, entries)
	}
	// The clone answers a replay without holding the data (pure window).
	ids, err := clone.ApplyShardCommit(11, nil, nil)
	if err != nil || !reflect.DeepEqual(ids, []int64{3}) {
		t.Fatalf("clone replay: %v, %v", ids, err)
	}
}

// Shard commits replay from the WAL: explicit IDs, block
// refcounts, and the nonce window all survive a restart, including a
// commit that is also covered by a snapshot (the exact-membership
// check, not the ID horizon, decides replay — shard IDs can arrive out
// of ID order).
func TestRecoverShardCommits(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	s := newWALServer(t, walDir)

	// Out-of-ID-order commits: the second carries SMALLER ids than the
	// first, as cluster replicas routinely see.
	if _, err := s.ApplyShardCommit(31, []int64{8, 12}, []ManifestUpload{
		shardUpload(t, s, 1, 900, 512), shardUpload(t, s, 2, 700, 512),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyShardCommit(32, []int64{2}, []ManifestUpload{
		shardUpload(t, s, 3, 1200, 512),
	}); err != nil {
		t.Fatal(err)
	}
	want := s.Stats()
	wantRefs := s.Blocks().RefCounts()
	wantUploads := s.Uploads()
	s.WAL().Close()

	r, _, err := Recover(RecoverConfig{WAL: wal.Config{Dir: walDir}})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats(); got != want {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	if refs := r.Blocks().RefCounts(); !reflect.DeepEqual(refs, wantRefs) {
		t.Fatalf("recovered refcounts %v, want %v", refs, wantRefs)
	}
	if got := r.Uploads(); !reflect.DeepEqual(got, wantUploads) {
		t.Fatalf("recovered uploads %v, want %v", got, wantUploads)
	}
	// The tail nonce replays with its original IDs and no double-apply.
	ids, err := r.ApplyShardCommit(32, nil, nil)
	if err != nil || !reflect.DeepEqual(ids, []int64{2}) {
		t.Fatalf("nonce 32 replay: %v, %v", ids, err)
	}
	if r.Stats() != want {
		t.Fatal("replay mutated recovered state")
	}
	r.WAL().Close()
}

// Kill-anywhere over the shard-commit path: the server dies at every
// filesystem operation of a shard-commit workload (mid WAL append, mid
// checkpoint), restarts over the surviving files, and the commit is
// retried under its original nonce and IDs. Every crash point must end
// byte-identical to the crash-free run — the cluster's guarantee that a
// replica crash never loses or duplicates an acked shard commit.
func TestKillAnywhereShardCommit(t *testing.T) {
	type step struct {
		nonce uint64
		ids   []int64
		seeds []uint64
		sizes []int
	}
	steps := []step{
		{nonce: 41, ids: []int64{6, 14}, seeds: []uint64{1, 2}, sizes: []int{900, 1300}},
		{nonce: 42, ids: []int64{3}, seeds: []uint64{3}, sizes: []int{700}},
		{nonce: 0, ids: nil, seeds: nil, sizes: nil}, // checkpoint marker
		{nonce: 43, ids: []int64{21, 22}, seeds: []uint64{4, 1}, sizes: []int{500, 900}},
	}
	apply := func(s *Server, st step) error {
		ups := make([]ManifestUpload, len(st.seeds))
		for i := range st.seeds {
			blob := blockstore.SynthPayload(st.seeds[i], st.sizes[i])
			m := blockstore.ManifestOf(blob, 512)
			parts := blockstore.Split(blob, 512)
			for j, h := range m.Hashes {
				if _, err := s.StageBlock(h, parts[j]); err != nil {
					return err
				}
			}
			ups[i] = ManifestUpload{
				Set:      walSet(st.seeds[i]),
				Meta:     UploadMeta{GroupID: int64(st.seeds[i]), Bytes: st.sizes[i]},
				Manifest: m,
			}
		}
		_, err := s.ApplyShardCommit(st.nonce, st.ids, ups)
		return err
	}
	recover := func(dir string, fs diskfault.FS) (*Server, error) {
		s, _, err := Recover(RecoverConfig{
			WAL: wal.Config{Dir: filepath.Join(dir, "wal"), FS: fs, Policy: wal.SyncEachRecord},
		})
		return s, err
	}

	// Crash-free baseline.
	baseDir := t.TempDir()
	base, err := recover(baseDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		if st.nonce == 0 {
			if err := base.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := apply(base, st); err != nil {
			t.Fatal(err)
		}
	}
	wantStats := base.Stats()
	wantRefs := base.Blocks().RefCounts()
	wantUploads := base.Uploads()
	base.WAL().Close()

	for k := int64(1); ; k++ {
		faulty := diskfault.New(diskfault.Config{Seed: k, CrashAfterOps: k})
		dir := t.TempDir()
		crashes := 0
		s, err := recover(dir, faulty)
		if err != nil {
			if !faulty.Crashed() {
				t.Fatalf("k=%d: recover failed without crash: %v", k, err)
			}
			crashes++
			if s, err = recover(dir, nil); err != nil {
				t.Fatalf("k=%d: clean recover: %v", k, err)
			}
		}
		for i := 0; i < len(steps); {
			st := steps[i]
			var err error
			if st.nonce == 0 {
				err = s.Checkpoint()
			} else {
				err = apply(s, st)
			}
			if err == nil {
				i++
				continue
			}
			if !faulty.Crashed() {
				t.Fatalf("k=%d: step %d failed without crash: %v", k, i, err)
			}
			if crashes++; crashes > 1 {
				t.Fatalf("k=%d: second failure after restart at step %d: %v", k, i, err)
			}
			if s.WAL() != nil {
				s.WAL().Close()
			}
			if s, err = recover(dir, nil); err != nil {
				t.Fatalf("k=%d: recover after crash at step %d: %v", k, i, err)
			}
			// Retry the failed step (same nonce, same IDs).
		}
		if crashes == 0 && !faulty.Crashed() {
			t.Logf("shard-commit sweep covered %d crash points", k-1)
			s.WAL().Close()
			break
		}
		if got := s.Stats(); got != wantStats {
			t.Fatalf("k=%d: final stats %+v, want %+v", k, got, wantStats)
		}
		if refs := s.Blocks().RefCounts(); !reflect.DeepEqual(refs, wantRefs) {
			t.Fatalf("k=%d: refcounts %v, want %v", k, refs, wantRefs)
		}
		if got := s.Uploads(); !reflect.DeepEqual(got, wantUploads) {
			t.Fatalf("k=%d: uploads %v, want %v", k, got, wantUploads)
		}
		s.WAL().Close()
	}
}
