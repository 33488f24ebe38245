package server

import (
	"bufio"
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
	"bees/internal/features"
	"bees/internal/index"
)

// Snapshot persistence: beesd survives restarts by writing the feature
// index and upload counters to disk. The format is a versioned binary
// stream: header, counters, one record per indexed entry (id, group,
// geotag, optional global histogram, descriptors), the upload history,
// then the content-addressed block store — one record per block (hash,
// refcount, length, data), hash-sorted — so delta uploads keep
// deduplicating across a restart. Only the current version loads.

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
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("server: write snapshot: %w", err)
	}
	// writeU64 captures the first write failure instead of discarding it:
	// a full disk mid-stream must abort the save (and leave the temp file
	// unrenamed), not silently commit a truncated snapshot.
	var saveErr error
	writeU64 := func(v uint64) {
		if saveErr == nil {
			saveErr = binary.Write(bw, binary.LittleEndian, v)
		}
	}
	writeU64(snapshotVersion)

	s.mu.Lock()
	received := s.received
	nextID := s.nextID
	uploads := append([]index.ImageID(nil), s.uploads...)
	metas := append([]UploadMeta(nil), s.metas...)
	s.mu.Unlock()

	writeU64(uint64(received))
	writeU64(uint64(nextID))

	// Count entries first (ForEach is ordered and race-free).
	count := uint64(0)
	s.idx.ForEach(func(*index.Entry) { count++ })
	writeU64(count)
	s.idx.ForEach(func(e *index.Entry) {
		if saveErr != nil {
			return
		}
		writeU64(uint64(e.ID))
		writeU64(uint64(e.GroupID))
		writeU64(math.Float64bits(e.Lat))
		writeU64(math.Float64bits(e.Lon))
		writeU64(uint64(e.Set.Len()))
		for _, d := range e.Set.Descriptors {
			for _, word := range d {
				writeU64(word)
			}
		}
	})
	// Upload history (IDs + metas without globals; globals only matter
	// for metadata queries of indexed seeds, which reconstruct from the
	// index on load).
	writeU64(uint64(len(uploads)))
	for i, id := range uploads {
		writeU64(uint64(id))
		m := metas[i]
		writeU64(uint64(m.GroupID))
		writeU64(math.Float64bits(m.Lat))
		writeU64(math.Float64bits(m.Lon))
		writeU64(uint64(m.Bytes))
	}
	// Block store section: hash-sorted for deterministic bytes, so
	// identical state always snapshots identically.
	nBlocks := uint64(0)
	s.blocks.ForEachSorted(func(blockstore.Hash, int64, []byte) { nBlocks++ })
	writeU64(nBlocks)
	s.blocks.ForEachSorted(func(h blockstore.Hash, refs int64, data []byte) {
		if saveErr != nil {
			return
		}
		if _, err := bw.Write(h[:]); err != nil {
			saveErr = err
			return
		}
		writeU64(uint64(refs))
		writeU64(uint64(len(data)))
		if saveErr == nil {
			_, saveErr = bw.Write(data)
		}
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
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("%w: read magic: %v", errBadSnapshot, err)
	}
	if magic != snapshotMagic {
		return errBadSnapshot
	}
	readU64 := func() (uint64, error) {
		var v uint64
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	version, err := readU64()
	if err != nil || version != snapshotVersion {
		return errBadSnapshot
	}
	received, err := readU64()
	if err != nil {
		return errBadSnapshot
	}
	nextID, err := readU64()
	if err != nil {
		return errBadSnapshot
	}
	count, err := readU64()
	if err != nil {
		return errBadSnapshot
	}
	for i := uint64(0); i < count; i++ {
		id, err := readU64()
		if err != nil {
			return errBadSnapshot
		}
		group, err := readU64()
		if err != nil {
			return errBadSnapshot
		}
		latBits, err := readU64()
		if err != nil {
			return errBadSnapshot
		}
		lonBits, err := readU64()
		if err != nil {
			return errBadSnapshot
		}
		n, err := readU64()
		if err != nil || n > maxSnapshotDescriptors {
			return errBadSnapshot
		}
		set := &features.BinarySet{Descriptors: make([]features.Descriptor, n)}
		for j := uint64(0); j < n; j++ {
			for w := 0; w < 4; w++ {
				word, err := readU64()
				if err != nil {
					return errBadSnapshot
				}
				set.Descriptors[j][w] = word
			}
		}
		s.idx.Add(&index.Entry{
			ID:      index.ImageID(id),
			Set:     set,
			GroupID: int64(group),
			Lat:     math.Float64frombits(latBits),
			Lon:     math.Float64frombits(lonBits),
		})
	}
	nUploads, err := readU64()
	if err != nil {
		return errBadSnapshot
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.received = int64(received)
	s.nextID = index.ImageID(nextID)
	for i := uint64(0); i < nUploads; i++ {
		id, err := readU64()
		if err != nil {
			return errBadSnapshot
		}
		group, err := readU64()
		if err != nil {
			return errBadSnapshot
		}
		latBits, err := readU64()
		if err != nil {
			return errBadSnapshot
		}
		lonBits, err := readU64()
		if err != nil {
			return errBadSnapshot
		}
		bytes, err := readU64()
		if err != nil {
			return errBadSnapshot
		}
		s.uploads = append(s.uploads, index.ImageID(id))
		s.metas = append(s.metas, UploadMeta{
			GroupID: int64(group),
			Lat:     math.Float64frombits(latBits),
			Lon:     math.Float64frombits(lonBits),
			Bytes:   int(bytes),
		})
	}
	nBlocks, err := readU64()
	if err != nil {
		return errBadSnapshot
	}
	for i := uint64(0); i < nBlocks; i++ {
		var h blockstore.Hash
		if _, err := io.ReadFull(br, h[:]); err != nil {
			return errBadSnapshot
		}
		refs, err := readU64()
		if err != nil || int64(refs) < 0 {
			return errBadSnapshot
		}
		n, err := readU64()
		if err != nil || n > maxSnapshotBlockBytes {
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

// SaveSnapshotFile writes a snapshot atomically and durably: the temp
// file is fsynced before the rename and the parent directory after it,
// so a power cut can never leave a renamed-but-empty snapshot. The
// previous snapshot is retained as path+".1" — recovery falls back to
// it when the primary turns out corrupt.
func (s *Server) SaveSnapshotFile(path string) error {
	tmp := path + ".tmp"
	dir := filepath.Dir(path)
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("server: create snapshot: %w", err)
	}
	if err := s.SaveSnapshot(f); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return fmt.Errorf("server: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("server: close snapshot: %w", err)
	}
	// Retain the previous generation. A crash between the two renames
	// leaves only path+".1"; recovery tries path first, then the ".1"
	// generation, and the WAL (not yet truncated) replays the rest.
	if _, err := s.fs.Stat(path); err == nil {
		if err := s.fs.Rename(path, path+".1"); err != nil {
			s.fs.Remove(tmp)
			return fmt.Errorf("server: retain snapshot: %w", err)
		}
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("server: commit snapshot: %w", err)
	}
	if err := s.fs.SyncDir(dir); err != nil {
		return fmt.Errorf("server: sync snapshot dir: %w", err)
	}
	return nil
}

// Checkpoint makes a durable snapshot and, when a WAL is attached,
// truncates the log. The order is rotate → snapshot → truncate: records
// appended after the rotation survive in the retained segment, and a
// crash between snapshot and truncate merely replays records the
// snapshot already holds — replay skips commits the snapshot covers.
//
// Truncation deliberately lags one checkpoint: only segments covered by
// the PREVIOUS snapshot (now retained as path+".1") are deleted, so if
// the primary snapshot is later found corrupt, the ".1" generation plus
// the remaining log still rebuild complete state.
func (s *Server) Checkpoint(path string) error {
	if s.wal == nil {
		return s.SaveSnapshotFile(path)
	}
	sealed, err := s.wal.Rotate()
	if err != nil {
		return err
	}
	if err := s.SaveSnapshotFile(path); err != nil {
		return err
	}
	s.ckptMu.Lock()
	prev := s.prevSealed
	s.prevSealed = sealed
	s.ckptMu.Unlock()
	return s.wal.TruncateThrough(prev)
}

// AutoSave writes periodic snapshots to path until the returned stop
// function is called (which takes one final snapshot so no tail of
// uploads is lost on a clean shutdown). Failures are logged via logf and
// retried next tick — a full disk now may be a writable disk later, and
// SaveSnapshotFile's temp+rename never clobbers the last good snapshot
// with a partial one.
func (s *Server) AutoSave(path string, interval time.Duration, logf func(string, ...any)) (stop func()) {
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
				if err := s.Checkpoint(path); err != nil {
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
			if err := s.Checkpoint(path); err != nil {
				logf("autosave (final): %v", err)
			}
		})
	}
}

// LoadSnapshotFile restores a snapshot from disk; a missing file is not
// an error (fresh start).
func (s *Server) LoadSnapshotFile(path string) error {
	f, err := s.fs.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: open snapshot: %w", err)
	}
	defer f.Close()
	return s.LoadSnapshot(f)
}
