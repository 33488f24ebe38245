package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"bees/internal/blockstore"
	"bees/internal/diskfault"
	"bees/internal/index"
	"bees/internal/wal"
)

// RecoverConfig describes where a crashed (or cleanly stopped) beesd
// left its durable state: one directory, the WAL's, which holds the log
// segments and the checkpoints beside them.
type RecoverConfig struct {
	// Server configures the recovered server (index, telemetry).
	Server Config
	// WAL configures the write-ahead log. Dir is required; the
	// checkpoints live in it as "checkpoint" (the primary),
	// "checkpoint.1" (the previous generation) and "checkpoint.tmp" (a
	// save in progress). FS carries the checkpoint I/O too.
	WAL wal.Config
}

// RecoverStats reports what recovery found; beesd logs it and the
// telemetry gauges under server.recover.* mirror it.
type RecoverStats struct {
	// SnapshotGeneration is 0 when no checkpoint was loaded (fresh start
	// or log-only recovery), 1 for the primary, 2 for the retained ".1"
	// fallback.
	SnapshotGeneration int
	// WALRecords is how many log records were replayed.
	WALRecords int
	// WALBadRecords counts records whose framing checksum passed but
	// whose payload did not decode or apply; they are skipped.
	WALBadRecords int
	// WALTruncatedBytes is how much of the log tail was abandoned at the
	// first torn or corrupt frame.
	WALTruncatedBytes int64
}

// Recover builds a server that persists, from the durable state in the
// WAL directory: load the last good checkpoint (falling back one
// generation if the primary is corrupt), replay the WAL tail on top —
// truncating at the first bad checksum — and reopen the log for
// appending. The returned server is ready to serve; its acknowledged
// state is exactly what the disk survived.
//
// A log whose oldest segment is past 1 has been truncated behind a
// checkpoint, so when no checkpoint loads, Recover refuses it and names
// the missing file instead of coming back with partial state.
func Recover(cfg RecoverConfig) (*Server, RecoverStats, error) {
	var stats RecoverStats
	if cfg.WAL.Dir == "" {
		return nil, stats, errors.New("server: recover: WAL.Dir required")
	}
	if cfg.WAL.FS == nil {
		cfg.WAL.FS = diskfault.OS()
	}
	if cfg.WAL.Telemetry == nil {
		cfg.WAL.Telemetry = cfg.Server.Telemetry
	}
	ckpt := filepath.Join(cfg.WAL.Dir, checkpointName)

	// Checkpoint, with generation fallback: the first generation that
	// loads wins. A primary that is absent (a crash between the save's
	// two renames leaves the name vacant) or corrupt falls back to
	// ".1"; LoadSnapshot partially mutates on failure, so a corrupt
	// attempt leaves a fresh server behind for the next one.
	s := NewWithConfig(cfg.Server)
	var corrupt []string
	for gen, path := range []string{ckpt, ckpt + ".1"} {
		found, err := s.loadSnapshotFile(cfg.WAL.FS, path)
		if err == nil && found {
			stats.SnapshotGeneration = gen + 1
			break
		}
		if errors.Is(err, errBadSnapshot) {
			corrupt = append(corrupt, path)
			s = NewWithConfig(cfg.Server)
		} else if err != nil {
			return nil, stats, fmt.Errorf("server: recover: %w", err)
		}
	}
	if stats.SnapshotGeneration == 0 {
		// The log alone must rebuild the state, which it can only if no
		// checkpoint ever truncated it.
		first, err := wal.FirstSegment(cfg.WAL)
		if err != nil {
			return nil, stats, fmt.Errorf("server: recover: %w", err)
		}
		if first > 1 {
			why := "is missing"
			if len(corrupt) > 0 {
				why = fmt.Sprintf("does not load (corrupt: %s)", strings.Join(corrupt, ", "))
			}
			return nil, stats, fmt.Errorf("server: recover: the log starts at segment %d, so its earlier records live only in a checkpoint, and %s %s", first, ckpt, why)
		}
	}

	// WAL replay on top of the checkpoint. A commit whose IDs are in the
	// checkpoint's upload history is already inside it (the stateMu cut
	// makes that exact) and only reseeds the nonce window; any other
	// commit is applied. Membership, not an ID horizon, decides, because
	// router-assigned IDs need not arrive in ID order.
	snapIDs := make(map[index.ImageID]struct{}, len(s.uploads))
	for _, id := range s.uploads {
		snapIDs[id] = struct{}{}
	}
	rst, err := wal.Replay(cfg.WAL, func(p []byte) error {
		if aerr := s.applyWALRecord(p, snapIDs); aerr != nil {
			stats.WALBadRecords++
		}
		return nil
	})
	if err != nil {
		return nil, stats, fmt.Errorf("server: recover: %w", err)
	}
	stats.WALRecords = rst.Records
	stats.WALTruncatedBytes = rst.TruncatedBytes

	l, err := wal.Open(cfg.WAL)
	if err != nil {
		return nil, stats, fmt.Errorf("server: recover: %w", err)
	}
	s.wal = l

	tel := cfg.Server.Telemetry
	tel.Gauge("server.recover.snapshot_generation").Set(float64(stats.SnapshotGeneration))
	tel.Gauge("server.recover.wal_records").Set(float64(stats.WALRecords))
	tel.Gauge("server.recover.wal_bad_records").Set(float64(stats.WALBadRecords))
	tel.Gauge("server.recover.wal_truncated_bytes").Set(float64(stats.WALTruncatedBytes))
	return s, stats, nil
}

// applyWALRecord decodes and applies one replayed record. Decode or
// apply failures are reported for counting and the record is skipped —
// the framing checksum already passed, so this is version skew, not
// disk corruption, and losing one record beats refusing to start.
func (s *Server) applyWALRecord(p []byte, snapIDs map[index.ImageID]struct{}) error {
	rec, err := decodeWALRecord(p)
	if err != nil {
		return err
	}
	switch r := rec.(type) {
	case *walBlockPut:
		// Put re-verifies the hash, so a block corrupted on disk after its
		// checksummed frame was written fails here rather than poisoning
		// the store; duplicates (block also in the snapshot) are no-ops.
		if _, err := s.blocks.Put(r.hash, r.data); err != nil {
			return err
		}
	case *walCommit:
		// A commit is applied atomically under the snapshot cut, so its
		// IDs are either all in the snapshot's upload history or none are.
		if _, inSnap := snapIDs[index.ImageID(r.ids[0])]; !inSnap {
			var pins []blockstore.Manifest
			for _, m := range r.manifests {
				if m.BlockSize != 0 {
					pins = append(pins, m)
				}
			}
			if len(pins) > 0 {
				if err := s.blocks.Commit(pins...); err != nil {
					return err
				}
			}
			s.install(r.ids, r.items)
		}
		// A client retrying this nonce after the crash gets the original
		// IDs, not a second apply.
		s.dedup.record(r.nonce, r.ids)
	}
	return nil
}
