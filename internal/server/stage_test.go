package server

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bees/internal/blockstore"
	"bees/internal/diskfault"
	"bees/internal/telemetry"
	"bees/internal/wal"
	"bees/internal/wire"
)

// writeHookFS wraps a diskfault.FS so a test can see every write to a
// file it creates before the write happens — and park the writer there.
type writeHookFS struct {
	diskfault.FS
	hook atomic.Pointer[func(p []byte)]
}

func (h *writeHookFS) onWrite(fn func(p []byte)) { h.hook.Store(&fn) }

func (h *writeHookFS) Create(name string) (diskfault.File, error) {
	f, err := h.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return writeHookedFile{File: f, fs: h}, nil
}

type writeHookedFile struct {
	diskfault.File
	fs *writeHookFS
}

func (f writeHookedFile) Write(p []byte) (int, error) {
	if fn := f.fs.hook.Load(); fn != nil {
		(*fn)(p)
	}
	return f.File.Write(p)
}

// isBlockPutFrame reports whether p is one whole WAL frame (u32 length,
// u32 checksum, payload) carrying a block record.
func isBlockPutFrame(p []byte) bool {
	return len(p) > 8 && binary.LittleEndian.Uint32(p) == uint32(len(p)-8) && p[8] == recBlockPut
}

// A block becomes visible only after its record is in the log. While the
// block's WAL write is parked, the store does not hold it, a BlockQuery
// from another connection answers "missing", and a commit naming it is
// refused — so no commit record can reach the log ahead of the block
// record it depends on. Recovery then holds every acked commit and finds
// no record it cannot apply.
func TestBlockLoggedBeforeVisible(t *testing.T) {
	dir := t.TempDir()
	fs := &writeHookFS{FS: diskfault.OS()}
	s := NewWithConfig(Config{BlockSize: 512})
	l, err := wal.Open(wal.Config{Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachWAL(l)
	addr := listenOn(t, s)

	blob := blockstore.SynthPayload(7, 1200)
	m := blockstore.ManifestOf(blob, 512)
	parts := blockstore.Split(blob, 512)
	last := len(parts) - 1
	for i := 0; i < last; i++ {
		if _, err := s.StageBlock(m.Hashes[i], parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	commit := &wire.ManifestCommit{Nonce: 0x0BDE, Items: []wire.ManifestItem{{
		Set: walSet(1), GroupID: 1, TotalBytes: m.TotalBytes,
		BlockSize: uint32(m.BlockSize), Hashes: m.Hashes,
	}}}

	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	fs.onWrite(func(p []byte) {
		if isBlockPutFrame(p) {
			once.Do(func() { close(parked); <-release })
		}
	})
	unpark := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unpark)
	put := exchange(addr, &wire.BlockPut{Blocks: []wire.Block{{Hash: m.Hashes[last], Data: parts[last]}}})
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the block's WAL write never happened")
	}

	if s.Blocks().Has(m.Hashes[last]) {
		t.Fatal("block visible in the store before its record is logged")
	}
	q, ok := await(t, exchange(addr, &wire.BlockQuery{Hashes: m.Hashes})).(*wire.BlockQueryResponse)
	if !ok || len(q.Have) != len(m.Hashes) {
		t.Fatalf("block query: %+v", q)
	}
	if q.Have[last] {
		t.Fatal("another connection's BlockQuery saw the block before its record is logged")
	}
	if _, ok := await(t, exchange(addr, commit)).(*wire.ErrorResponse); !ok {
		t.Fatal("a commit naming a block whose record is not logged was accepted")
	}

	unpark()
	if r, ok := await(t, put).(*wire.BlockPutResponse); !ok || r.Stored != 1 {
		t.Fatalf("parked put: %+v", r)
	}
	acked, ok := await(t, exchange(addr, commit)).(*wire.ManifestCommitResponse)
	if !ok || len(acked.IDs) != 1 {
		t.Fatalf("commit after the block was logged: %+v", acked)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, st, err := Recover(RecoverConfig{Server: Config{BlockSize: 512}, WAL: wal.Config{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer got.WAL().Close()
	if st.WALBadRecords != 0 {
		t.Fatalf("recovery skipped %d records", st.WALBadRecords)
	}
	if ups := got.Uploads(); len(ups) != 1 || int64(ups[0]) != acked.IDs[0] {
		t.Fatalf("recovered uploads %v, acked %v", ups, acked.IDs)
	}
	for _, h := range m.Hashes {
		if refs := got.Blocks().RefCount(h); refs != 1 {
			t.Fatalf("recovered block %s holds %d refs, want 1", h.Short(), refs)
		}
	}
}

// A block that fails verification is neither logged nor stored, and a
// block the store already holds is not logged again.
func TestStageBlockLogsOnlyNewVerifiedBlocks(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewWithConfig(Config{BlockSize: 512, Telemetry: reg})
	l, err := wal.Open(wal.Config{Dir: t.TempDir(), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s.AttachWAL(l)
	records := reg.Counter("wal.append.records")

	good := blockstore.SynthPayload(3, 300)
	h := blockstore.HashBlock(good)
	huge := make([]byte, blockstore.MaxBlockSize+1)
	for _, tc := range []struct {
		name string
		h    blockstore.Hash
		data []byte
	}{
		{"hash_mismatch", h, blockstore.SynthPayload(4, 300)},
		{"oversized", blockstore.HashBlock(huge), huge},
		{"empty", blockstore.HashBlock(nil), nil},
	} {
		if stored, err := s.StageBlock(tc.h, tc.data); err == nil || stored {
			t.Fatalf("%s: stored=%v err=%v, want refused", tc.name, stored, err)
		}
		if n := records.Value(); n != 0 {
			t.Fatalf("%s: %d WAL records appended for a refused block", tc.name, n)
		}
		if n := s.Blocks().Len(); n != 0 {
			t.Fatalf("%s: store holds %d blocks", tc.name, n)
		}
	}
	if _, err := s.StageBlock(h, blockstore.SynthPayload(4, 300)); !errors.Is(err, blockstore.ErrHashMismatch) {
		t.Fatalf("hash mismatch err = %v, want ErrHashMismatch", err)
	}

	if stored, err := s.StageBlock(h, good); err != nil || !stored {
		t.Fatalf("good block: stored=%v err=%v", stored, err)
	}
	if stored, err := s.StageBlock(h, good); err != nil || stored {
		t.Fatalf("duplicate block: stored=%v err=%v", stored, err)
	}
	if n := records.Value(); n != 1 {
		t.Fatalf("%d WAL records for one new block and one duplicate, want 1", n)
	}
	if n := reg.Counter("blockstore.put.dup_blocks").Value(); n != 1 {
		t.Fatalf("blockstore.put.dup_blocks = %d, want 1", n)
	}
}
