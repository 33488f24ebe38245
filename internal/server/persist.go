package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bees/internal/blockstore"
	"bees/internal/diskfault"
	"bees/internal/features"
	"bees/internal/index"
	"bees/internal/wire"
)

// Snapshot persistence: beesd survives restarts by checkpointing the
// feature index, upload history and block store into its WAL directory
// (Checkpoint), and ShardSync ships the same bytes to a joining
// replica. The format is a versioned binary stream of fixed-width
// little-endian fields with u64 counts:
//
//	"BEES" | u64 version | u64 received | u64 nextID
//	u64 entries | entries × (u64 id | u64 group | f64 lat | f64 lon |
//	                         u64 n | n × 32-byte descriptor)
//	u64 uploads | uploads × (u64 id | meta)   (meta as in a WAL record)
//	u64 blocks  | blocks × (hash | u64 refcount | u64 length | data)
//
// Blocks are hash-sorted, so identical state always snapshots
// identically, and delta uploads keep deduplicating across a restart.
// Records are written with wire's append helpers and read one at a time
// through wire.Reader, so the stream is never held whole. Only the
// current version loads. The nonce dedup window is not in the stream:
// after a restart it holds only the nonces of commits the log still
// replays (ShardSync sends the window beside the snapshot).

var snapshotMagic = [4]byte{'B', 'E', 'E', 'S'}

const snapshotVersion = 2

// maxSnapshotBlockBytes caps the per-block length a snapshot may
// announce, bounding decode-time allocation against corrupt streams.
const maxSnapshotBlockBytes = blockstore.MaxBlockSize

// errBadSnapshot reports a corrupt or incompatible snapshot stream.
var errBadSnapshot = errors.New("server: bad snapshot")

// maxSnapshotDescriptors caps the per-entry descriptor count a snapshot
// may announce, bounding decode-time allocation against corrupt streams.
// Real extractions top out at a few hundred ORB descriptors per image.
const maxSnapshotDescriptors = 1 << 16

// SaveSnapshot serializes the server state (index entries + counters).
// It holds the snapshot cut (stateMu) for the duration: no mutator is
// mid-flight, so counters, index, upload history, and block store are
// one consistent point in time — the property WAL replay's coverage
// check (a commit's IDs in the snapshot's upload history) relies on.
func (s *Server) SaveSnapshot(w io.Writer) error {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.mu.Lock()
	received := s.received
	nextID := s.nextID
	uploads := append([]index.ImageID(nil), s.uploads...)
	metas := append([]UploadMeta(nil), s.metas...)
	s.mu.Unlock()

	// Each record is built in rec and streamed out with its trailing
	// bytes (a block's data); put keeps the first write failure, so a
	// full disk mid-stream aborts the save (and leaves the temp file
	// unrenamed) instead of silently committing a truncated snapshot.
	bw := bufio.NewWriter(w)
	var saveErr error
	rec := make([]byte, 0, 256)
	put := func(tail []byte) {
		if saveErr == nil {
			_, saveErr = bw.Write(rec)
		}
		if saveErr == nil && len(tail) > 0 {
			_, saveErr = bw.Write(tail)
		}
		rec = rec[:0]
	}
	u64 := binary.LittleEndian.AppendUint64

	count := 0
	s.idx.ForEach(func(*index.Entry) { count++ })
	rec = append(rec, snapshotMagic[:]...)
	rec = u64(rec, snapshotVersion)
	rec = u64(rec, uint64(received))
	rec = u64(rec, uint64(nextID))
	rec = u64(rec, uint64(count))
	put(nil)
	s.idx.ForEach(func(e *index.Entry) {
		rec = u64(rec, uint64(e.ID))
		rec = u64(rec, uint64(e.GroupID))
		rec = u64(rec, math.Float64bits(e.Lat))
		rec = u64(rec, math.Float64bits(e.Lon))
		rec = u64(rec, uint64(e.Set.Len()))
		rec = wire.AppendDescriptors(rec, e.Set.Descriptors)
		put(nil)
	})
	// Upload history (IDs + metas without globals; globals only matter
	// for metadata queries of indexed seeds, which reconstruct from the
	// index on load).
	rec = u64(rec, uint64(len(uploads)))
	put(nil)
	for i, id := range uploads {
		rec = u64(rec, uint64(id))
		rec = appendMeta(rec, &metas[i])
		put(nil)
	}
	// Block store section: hash-sorted for deterministic bytes, so
	// identical state always snapshots identically.
	nBlocks := 0
	s.blocks.ForEachSorted(func(blockstore.Hash, int64, []byte) { nBlocks++ })
	rec = u64(rec, uint64(nBlocks))
	put(nil)
	s.blocks.ForEachSorted(func(h blockstore.Hash, refs int64, data []byte) {
		rec = append(rec, h[:]...)
		rec = u64(rec, uint64(refs))
		rec = u64(rec, uint64(len(data)))
		put(data)
	})
	if saveErr != nil {
		return fmt.Errorf("server: write snapshot: %w", saveErr)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("server: flush snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot restores server state saved by SaveSnapshot into a fresh
// server. Loading into a non-empty server returns an error.
func (s *Server) LoadSnapshot(r io.Reader) error {
	// Freshness covers the index too: a server that only holds seeded
	// entries (SeedIndex bumps nextID, but a snapshot loaded on top of
	// seeds would silently interleave IDs) must refuse a load just like
	// one that has taken uploads.
	s.mu.Lock()
	dirty := len(s.uploads) > 0 || s.nextID != 0 || s.idx.Len() > 0 || s.blocks.Len() > 0
	s.mu.Unlock()
	if dirty {
		return errors.New("server: LoadSnapshot requires a fresh server")
	}
	// The stream is read one record at a time: next returns a Reader over
	// the next n bytes (fewer at the end of the stream, so a truncated
	// record fails its own reads), and buf is reused, so loading holds
	// no more than one record beyond the state it rebuilds.
	br := bufio.NewReader(r)
	var buf []byte
	next := func(n int) wire.Reader {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		k, _ := io.ReadFull(br, buf[:n])
		return wire.NewReader(buf[:k])
	}
	hdr := next(len(snapshotMagic) + 4*8)
	magic, version, received, nextID, count := hdr.Bytes(len(snapshotMagic)), hdr.U64(), hdr.U64(), hdr.U64(), hdr.U64()
	if hdr.Done() != nil || !bytes.Equal(magic, snapshotMagic[:]) || version != snapshotVersion {
		return errBadSnapshot
	}
	for i := uint64(0); i < count; i++ {
		rec := next(5 * 8)
		e := &index.Entry{ID: index.ImageID(rec.U64()), GroupID: int64(rec.U64()), Lat: rec.F64(), Lon: rec.F64()}
		n := rec.U64()
		if rec.Done() != nil || n > maxSnapshotDescriptors {
			return errBadSnapshot
		}
		descs := next(int(n) * 8 * len(features.Descriptor{}))
		e.Set = &features.BinarySet{Descriptors: descs.Descriptors(int(n))}
		if descs.Done() != nil {
			return errBadSnapshot
		}
		s.idx.Add(e)
	}
	rec := next(8)
	nUploads := rec.U64()
	if rec.Done() != nil {
		return errBadSnapshot
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.received = int64(received)
	s.nextID = index.ImageID(nextID)
	for i := uint64(0); i < nUploads; i++ {
		rec := next(5 * 8)
		id, meta := index.ImageID(rec.U64()), readMeta(&rec)
		if rec.Done() != nil {
			return errBadSnapshot
		}
		s.uploads = append(s.uploads, id)
		s.metas = append(s.metas, meta)
	}
	rec = next(8)
	nBlocks := rec.U64()
	if rec.Done() != nil {
		return errBadSnapshot
	}
	for i := uint64(0); i < nBlocks; i++ {
		rec := next(len(blockstore.Hash{}) + 2*8)
		h, refs, n := rec.Hash(), rec.U64(), rec.U64()
		if rec.Done() != nil || int64(refs) < 0 || n > maxSnapshotBlockBytes {
			return errBadSnapshot
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(br, data); err != nil {
			return errBadSnapshot
		}
		// Restore re-verifies hash-over-data, so a block corrupted on
		// disk fails the load instead of poisoning the store.
		if err := s.blocks.Restore(h, int64(refs), data); err != nil {
			return fmt.Errorf("%w: block %d: %v", errBadSnapshot, i, err)
		}
	}
	return nil
}

// checkpointName is the primary checkpoint's file name inside the WAL
// directory; the previous generation sits beside it as ".1" and a save
// in progress as ".tmp". The log's segment scan skips all three, as it
// skips every name that is not a segment's.
const checkpointName = "checkpoint"

// errNoLog refuses Checkpoint and AutoSave on a server that Recover did
// not build: with no log there is no directory to checkpoint into.
var errNoLog = errors.New("server: checkpoint needs a server built by Recover")

// saveSnapshotFile writes a snapshot atomically and durably: the temp
// file is fsynced before the rename and the parent directory after it,
// so a power cut can never leave a renamed-but-empty snapshot. The
// previous snapshot is retained as path+".1" — recovery falls back to
// it when the primary turns out corrupt.
func (s *Server) saveSnapshotFile(fs diskfault.FS, path string) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("server: create snapshot: %w", err)
	}
	if err := s.SaveSnapshot(f); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return fmt.Errorf("server: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("server: close snapshot: %w", err)
	}
	// Retain the previous generation. A crash between the two renames
	// leaves only path+".1"; recovery tries path first, then the ".1"
	// generation, and the WAL (not yet truncated) replays the rest.
	if _, err := fs.Stat(path); err == nil {
		if err := fs.Rename(path, path+".1"); err != nil {
			fs.Remove(tmp)
			return fmt.Errorf("server: retain snapshot: %w", err)
		}
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("server: commit snapshot: %w", err)
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("server: sync snapshot dir: %w", err)
	}
	return nil
}

// loadSnapshotFile restores a snapshot from disk into a fresh server;
// found is false, with no error, when the file does not exist.
func (s *Server) loadSnapshotFile(fs diskfault.FS, path string) (found bool, err error) {
	f, err := fs.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("server: open snapshot: %w", err)
	}
	defer f.Close()
	return true, s.LoadSnapshot(f)
}

// Checkpoint writes a durable snapshot into the WAL directory and
// truncates the log. The order is rotate → snapshot → truncate: records
// appended after the rotation survive in the retained segment, and a
// crash between snapshot and truncate merely replays records the
// snapshot already holds — replay skips commits the snapshot covers.
//
// Truncation deliberately lags one checkpoint: only segments covered by
// the PREVIOUS checkpoint (now retained as "checkpoint.1") are deleted,
// so if the primary is later found corrupt, the ".1" generation plus
// the remaining log still rebuild complete state. "Previous" means
// previous in this process, so the first checkpoint after Recover
// deletes nothing; a caller that checkpoints once after Recover (as
// beesd does at startup) has every later checkpoint delete the segments
// the process started with.
func (s *Server) Checkpoint() error {
	if s.wal == nil {
		return errNoLog
	}
	sealed, err := s.wal.Rotate()
	if err != nil {
		return err
	}
	cfg := s.wal.Config()
	if err := s.saveSnapshotFile(cfg.FS, filepath.Join(cfg.Dir, checkpointName)); err != nil {
		return err
	}
	s.ckptMu.Lock()
	prev := s.prevSealed
	s.prevSealed = sealed
	s.ckptMu.Unlock()
	return s.wal.TruncateThrough(prev)
}

// AutoSave checkpoints every interval until the returned stop function
// is called (which takes one final checkpoint so no tail of uploads is
// left to replay after a clean shutdown). Failures are logged via logf
// and retried next tick — a full disk now may be a writable disk later,
// and the temp+rename never clobbers the last good checkpoint with a
// partial one.
func (s *Server) AutoSave(interval time.Duration, logf func(string, ...any)) (stop func()) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	closeCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-closeCh:
				return
			case <-t.C:
				if err := s.Checkpoint(); err != nil {
					logf("autosave: %v", err)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(closeCh)
			<-done
			if err := s.Checkpoint(); err != nil {
				logf("autosave (final): %v", err)
			}
		})
	}
}
