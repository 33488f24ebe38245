package server

import (
	"errors"
	"fmt"

	"bees/internal/blockstore"
	"bees/internal/index"
	"bees/internal/wal"
)

// RecoverConfig describes where a crashed (or cleanly stopped) beesd
// left its durable state.
type RecoverConfig struct {
	// Server configures the recovered server (index, telemetry, block
	// size, filesystem).
	Server Config
	// SnapshotPath is the primary snapshot file; "" starts fresh. The
	// previous generation is expected at SnapshotPath+".1".
	SnapshotPath string
	// WAL configures the write-ahead log; an empty Dir runs without one
	// (snapshot-only durability, the pre-WAL behavior).
	WAL wal.Config
}

// RecoverStats reports what recovery found; beesd logs it and the
// telemetry gauges under server.recover.* mirror it.
type RecoverStats struct {
	// SnapshotGeneration is 0 when no snapshot was loaded (fresh start),
	// 1 for the primary, 2 for the retained ".1" fallback.
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

// Recover rebuilds a server from its durable state: load the last good
// snapshot (falling back one generation if the primary is corrupt),
// replay the WAL tail on top — truncating at the first bad checksum —
// and reopen the log for appending. The returned server is ready to
// serve; its acknowledged state is exactly what the disk survived.
func Recover(cfg RecoverConfig) (*Server, RecoverStats, error) {
	var stats RecoverStats
	if cfg.WAL.FS == nil {
		cfg.WAL.FS = cfg.Server.FS
	}
	if cfg.WAL.Telemetry == nil {
		cfg.WAL.Telemetry = cfg.Server.Telemetry
	}

	// Snapshot, with generation fallback. LoadSnapshot partially mutates
	// on failure, so each attempt gets a fresh server.
	s := NewWithConfig(cfg.Server)
	if cfg.SnapshotPath != "" {
		switch err := s.LoadSnapshotFile(cfg.SnapshotPath); {
		case err == nil && s.snapshotLoaded():
			stats.SnapshotGeneration = 1
		case err == nil:
			// Primary absent: either a true fresh start, or a crash between
			// SaveSnapshotFile's two renames left the name vacant with the
			// previous generation at ".1". Starting fresh in the latter case
			// would outrun the lag-one-truncated WAL, so try the fallback
			// (LoadSnapshotFile touched nothing, s is still fresh).
			prev := cfg.SnapshotPath + ".1"
			if err2 := s.LoadSnapshotFile(prev); err2 != nil {
				return nil, stats, fmt.Errorf("server: recover: primary snapshot missing, fallback %s: %w", prev, err2)
			}
			if s.snapshotLoaded() {
				stats.SnapshotGeneration = 2
			}
		case errors.Is(err, errBadSnapshot):
			s = NewWithConfig(cfg.Server)
			prev := cfg.SnapshotPath + ".1"
			switch err2 := s.LoadSnapshotFile(prev); {
			case err2 == nil:
				if s.snapshotLoaded() {
					stats.SnapshotGeneration = 2
				}
			case errors.Is(err2, errBadSnapshot):
				return nil, stats, fmt.Errorf("server: recover: primary snapshot: %v; fallback %s: %w", err, prev, err2)
			default:
				return nil, stats, err2
			}
		default:
			return nil, stats, err
		}
	}

	// WAL replay on top of the snapshot. A commit whose IDs are in the
	// snapshot's upload history is already inside it (the stateMu cut
	// makes that exact) and only reseeds the nonce window; any other
	// commit is applied. Membership, not an ID horizon, decides, because
	// router-assigned IDs need not arrive in ID order.
	if cfg.WAL.Dir != "" {
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
		s.AttachWAL(l)
	}

	tel := cfg.Server.Telemetry
	tel.Gauge("server.recover.snapshot_generation").Set(float64(stats.SnapshotGeneration))
	tel.Gauge("server.recover.wal_records").Set(float64(stats.WALRecords))
	tel.Gauge("server.recover.wal_bad_records").Set(float64(stats.WALBadRecords))
	tel.Gauge("server.recover.wal_truncated_bytes").Set(float64(stats.WALTruncatedBytes))
	return s, stats, nil
}

// snapshotLoaded distinguishes "snapshot file existed" from a fresh
// start after LoadSnapshotFile's missing-file-is-nil contract.
func (s *Server) snapshotLoaded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID != 0 || s.received != 0 || s.idx.Len() > 0 || s.blocks.Len() > 0
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
