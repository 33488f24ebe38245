// Package wal implements the checksummed, segmented write-ahead log
// that makes beesd crash-consistent: the server appends a record for
// every state-mutating frame (block staging, commits — each commit
// carrying its dedup nonce), and a commit's record is durable before
// the commit is acknowledged, so recovery is "load the last durable
// snapshot, replay the WAL tail". Block records go in with
// AppendNoSync: their ack promises nothing, and the fsync of the first
// commit that names them, which sits later in the same log, makes them
// durable too.
//
// Layout: the log is a directory of segment files wal-<seq>.seg, each
// headed by magic|version|seq and holding length-prefixed records
// framed as u32 length | u32 CRC32C(payload) | payload. Appends go to
// the newest segment and rotate to a fresh one past SegmentBytes; a
// reopened log first discards any torn tail physically (repairTail) and
// then starts a new segment rather than appending to an old one, so a
// fresh append can never land beyond a truncation point where replay
// would not reach it.
//
// Torn and corrupt tails are expected, not fatal: Replay stops at the
// first frame whose length is implausible or whose checksum fails and
// reports how many bytes it left behind. A record is only replayed if
// it is provably intact, so a frame the server never finished logging
// (and therefore never acknowledged) can never resurface.
//
// Durability is configurable per Config.Policy: SyncEachRecord fsyncs
// before Append returns (every acknowledged commit survives power loss),
// and SyncNone leaves flushing to the OS.
//
// Retention is keyed to snapshots: Rotate seals the current segments
// and returns a watermark; once the caller has written a durable
// snapshot covering everything up to the rotate, TruncateThrough
// deletes the sealed segments. Crash between the two deletes nothing —
// recovery replays records the snapshot already holds, which the
// server's replay makes idempotent.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"bees/internal/diskfault"
	"bees/internal/telemetry"
)

var segMagic = [4]byte{'B', 'W', 'A', 'L'}

const (
	segVersion = 1
	segPrefix  = "wal-"
	segExt     = ".seg"
	// segHeaderSize = magic(4) + u32 version + u64 seq.
	segHeaderSize = 4 + 4 + 8
	// frameHeaderSize = u32 length + u32 crc32c.
	frameHeaderSize = 8

	// DefaultSegmentBytes is the rotation threshold.
	DefaultSegmentBytes = 4 << 20
	// MaxRecordBytes bounds a single record, and with it the allocation
	// a corrupt length prefix can demand during replay.
	MaxRecordBytes = 64 << 20
)

// crcTable is the Castagnoli polynomial — hardware-accelerated on
// amd64/arm64, and the conventional choice for storage checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports an append to a closed log.
var ErrClosed = errors.New("wal: closed")

// SyncPolicy selects when an Append becomes durable.
type SyncPolicy int

const (
	// SyncEachRecord fsyncs before every Append returns.
	SyncEachRecord SyncPolicy = iota
	// SyncNone never fsyncs on the append path (rotation still syncs the
	// sealed file); a crash can lose the OS-buffered tail.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEachRecord:
		return "record"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses a -wal-sync flag value: "record" (or empty)
// or "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "record", "":
		return SyncEachRecord, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: bad sync policy %q (want record or none)", s)
}

// Config parameterizes a Log. Dir is required; everything else has the
// documented default.
type Config struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// FS is the filesystem the log writes through (diskfault injection
	// point). Nil selects the real filesystem.
	FS diskfault.FS
	// SegmentBytes is the rotation threshold. Default 4 MiB.
	SegmentBytes int64
	// Policy selects append durability. Default SyncEachRecord.
	Policy SyncPolicy
	// Telemetry receives the log's counters ("wal.*"). Nil disables.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = diskfault.OS()
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	return c
}

// Log is an append-only segmented record log. Append is safe for
// concurrent use; Rotate/TruncateThrough/Close may race appends.
type Log struct {
	cfg Config
	fs  diskfault.FS

	mu     sync.Mutex
	f      diskfault.File
	seq    uint64 // current segment sequence
	size   int64  // bytes written to current segment
	err    error  // sticky: first I/O failure poisons the log
	closed bool

	recs, bytes, syncs, rotations *telemetry.Counter
	segGauge                      *telemetry.Gauge
}

// segName formats a segment filename; 16 hex digits keep lexical and
// numeric order identical.
func segName(seq uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, seq, segExt) }

// parseSegName extracts the sequence from a segment filename.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segExt) {
		return 0, false
	}
	mid := name[len(segPrefix) : len(name)-len(segExt)]
	if len(mid) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the existing segment sequences in ascending order.
func listSegments(fs diskfault.FS, dir string) ([]uint64, error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Open creates (or reopens) the log for appending. Intact existing
// segments are left untouched — Replay reads them — but a torn or
// corrupt tail is first discarded physically (see repairTail), and
// appends then go to a fresh segment numbered after the newest
// surviving one, so recovery never has to reason about a file that
// mixes pre- and post-crash records.
func Open(cfg Config) (*Log, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("wal: Config.Dir required")
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	seqs, err := listSegments(cfg.FS, cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: scan dir: %w", err)
	}
	seqs, err = repairTail(cfg.FS, cfg.Dir, seqs)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(seqs); n > 0 {
		next = seqs[n-1] + 1
	}
	tel := cfg.Telemetry
	l := &Log{
		cfg:       cfg,
		fs:        cfg.FS,
		recs:      tel.Counter("wal.append.records"),
		bytes:     tel.Counter("wal.append.bytes"),
		syncs:     tel.Counter("wal.syncs"),
		rotations: tel.Counter("wal.rotations"),
		segGauge:  tel.Gauge("wal.segments"),
	}
	if err := l.openSegmentLocked(next); err != nil {
		return nil, err
	}
	l.segGauge.Set(float64(len(seqs) + 1))
	return l, nil
}

// repairTail physically enforces Replay's truncation decision before
// the log is reopened for appending: everything past the first torn or
// corrupt frame is discarded — later segments removed, the bad segment
// rewritten to its intact prefix (or removed outright when nothing of
// it is intact). Without this, records appended after a reopen would
// sit beyond the truncation point, where no future replay could ever
// reach them: replay must stop at the first bad frame, and a torn
// segment left on disk would become a permanent barrier in front of
// everything acknowledged after the restart.
//
// Later segments are removed before the bad one is rewritten: a crash
// mid-repair must never leave an intact-looking segment in front of
// abandoned ones, or the next replay would read past the original
// truncation point.
func repairTail(fs diskfault.FS, dir string, seqs []uint64) ([]uint64, error) {
	for i, seq := range seqs {
		path := filepath.Join(dir, segName(seq))
		_, bad, err := replaySegment(fs, path, seq, func([]byte) error { return nil })
		if err != nil {
			return nil, err
		}
		if bad < 0 {
			continue // fully intact
		}
		for _, rest := range seqs[i+1:] {
			if rerr := fs.Remove(filepath.Join(dir, segName(rest))); rerr != nil {
				return nil, fmt.Errorf("wal: repair: %w", rerr)
			}
		}
		var size int64
		if fi, serr := fs.Stat(path); serr == nil {
			size = fi.Size()
		}
		goodBytes := size - bad
		if goodBytes <= segHeaderSize {
			// No intact record survives (torn or foreign header, or a
			// first frame that never completed): drop the whole file.
			if rerr := fs.Remove(path); rerr != nil {
				return nil, fmt.Errorf("wal: repair: %w", rerr)
			}
			seqs = seqs[:i]
		} else {
			if rerr := rewritePrefix(fs, dir, path, goodBytes); rerr != nil {
				return nil, rerr
			}
			seqs = seqs[:i+1]
		}
		if rerr := fs.SyncDir(dir); rerr != nil {
			return nil, fmt.Errorf("wal: repair: %w", rerr)
		}
		return seqs, nil
	}
	return seqs, nil
}

// rewritePrefix atomically replaces path with its first n bytes (the
// validated good prefix of a torn segment): write to a temp file, sync,
// rename over the original. The temp name never parses as a segment, so
// a crash mid-rewrite leaves the torn original in place for the next
// repair attempt.
func rewritePrefix(fs diskfault.FS, dir, path string, n int64) error {
	src, err := fs.Open(path)
	if err != nil {
		return fmt.Errorf("wal: repair: %w", err)
	}
	buf := make([]byte, n)
	_, err = io.ReadFull(src, buf)
	src.Close()
	if err != nil {
		return fmt.Errorf("wal: repair: %w", err)
	}
	tmp := filepath.Join(dir, "repair.tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: repair: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("wal: repair: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: repair: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: repair: %w", err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: repair: %w", err)
	}
	return nil
}

// openSegmentLocked creates segment seq, writes its header durably and
// makes it the append target. Callers hold l.mu (or own the log
// exclusively during Open).
func (l *Log) openSegmentLocked(seq uint64) error {
	path := filepath.Join(l.cfg.Dir, segName(seq))
	f, err := l.fs.Create(path)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:4], segMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], segVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync segment header: %w", err)
	}
	if err := l.fs.SyncDir(l.cfg.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	l.f = f
	l.seq = seq
	l.size = segHeaderSize
	return nil
}

// Append writes one record and returns once it is durable per the
// configured policy. The payload is copied into the frame before the
// call returns; the caller may reuse it. A log that has seen an I/O
// error refuses every later append with that error — memory state and
// log contents must not diverge silently.
func (l *Log) Append(payload []byte) error { return l.append(payload, true) }

// AppendNoSync writes one record like Append but returns without an
// fsync, under every policy. The record is durable once any later
// Append, Rotate or Close returns (under SyncNone, as durable as that
// Append's own record): each of them syncs every record before it,
// because records sit in append order in one segment file and a
// segment is synced before it is sealed. It is for records whose ack
// promises nothing until a later synced record names them. A closed or
// poisoned log refuses it with the error it gives Append.
func (l *Log) AppendNoSync(payload []byte) error { return l.append(payload, false) }

// append writes one frame; with fsync set it syncs the frame before
// returning under SyncEachRecord.
func (l *Log) append(payload []byte, fsync bool) error {
	if len(payload) == 0 {
		return errors.New("wal: empty record")
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
	}
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeaderSize:], payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if l.size >= l.cfg.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			return err
		}
	}
	// One Write call per frame: a torn write can split a record but
	// never interleave two, so the checksum draws a clean line between
	// "fully logged" and "never happened".
	if _, err := l.f.Write(frame); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return l.err
	}
	l.size += int64(len(frame))
	l.recs.Inc()
	l.bytes.Add(int64(len(frame)))
	if fsync && l.cfg.Policy == SyncEachRecord {
		return l.syncLocked()
	}
	return nil
}

// syncLocked fsyncs the current segment; a failure poisons the log.
// Callers hold l.mu.
func (l *Log) syncLocked() error {
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: sync: %w", err)
		return l.err
	}
	l.syncs.Inc()
	return nil
}

// Rotate seals the current segments and starts a fresh one, returning
// the highest sealed sequence. The caller snapshots *after* Rotate:
// everything in sealed segments was applied to memory before the
// snapshot cut, so once that snapshot is durable, TruncateThrough of
// the returned watermark cannot lose state.
func (l *Log) Rotate() (sealed uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	sealed = l.seq
	if err := l.rotateLocked(); err != nil {
		l.err = err
		return 0, err
	}
	return sealed, nil
}

// rotateLocked syncs and closes the current segment, then opens the
// next. Callers hold l.mu.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	if err := l.openSegmentLocked(l.seq + 1); err != nil {
		return err
	}
	l.rotations.Inc()
	l.segGauge.Add(1)
	return nil
}

// TruncateThrough removes every sealed segment with sequence <= sealed.
// Call it only after a snapshot covering those segments is durable.
// The current segment is never removed.
func (l *Log) TruncateThrough(sealed uint64) error {
	l.mu.Lock()
	cur := l.seq
	fs, dir := l.fs, l.cfg.Dir
	l.mu.Unlock()
	seqs, err := listSegments(fs, dir)
	if err != nil {
		return fmt.Errorf("wal: scan dir: %w", err)
	}
	removed := 0
	for _, seq := range seqs {
		if seq <= sealed && seq < cur {
			if err := fs.Remove(filepath.Join(dir, segName(seq))); err != nil {
				return fmt.Errorf("wal: remove segment: %w", err)
			}
			removed++
		}
	}
	if removed > 0 {
		if err := fs.SyncDir(dir); err != nil {
			return fmt.Errorf("wal: sync dir: %w", err)
		}
		l.segGauge.Add(float64(-removed))
	}
	return nil
}

// Close syncs and closes the log. Further appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	var err error
	if l.err == nil {
		if serr := l.f.Sync(); serr != nil {
			err = fmt.Errorf("wal: sync on close: %w", serr)
		}
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	return err
}

// ReplayStats summarizes a Replay: how much was recovered and how much
// of a torn or corrupt tail was left behind.
type ReplayStats struct {
	// Records is the count of intact records handed to the callback.
	Records int
	// Segments is how many segment files were visited.
	Segments int
	// TruncatedBytes counts bytes abandoned from the first bad frame
	// onward (including any later segments, which are not replayed —
	// record order across a corruption gap is meaningless).
	TruncatedBytes int64
	// TruncatedAt names the segment file where replay stopped ("" when
	// the log was fully intact).
	TruncatedAt string
}

// Replay reads every record in cfg.Dir in append order and hands each
// intact payload to fn. It stops — without error — at the first torn or
// corrupt frame, reporting the abandoned bytes in the stats: a crashed
// append is an expected artifact, not a failure. A missing directory
// replays zero records. An fn error aborts the replay and is returned.
func Replay(cfg Config, fn func(payload []byte) error) (ReplayStats, error) {
	cfg = cfg.withDefaults()
	var st ReplayStats
	seqs, err := listSegments(cfg.FS, cfg.Dir)
	if err != nil {
		if _, serr := cfg.FS.Stat(cfg.Dir); serr != nil {
			return st, nil // no WAL yet: nothing to replay
		}
		return st, fmt.Errorf("wal: scan dir: %w", err)
	}
	for i, seq := range seqs {
		name := filepath.Join(cfg.Dir, segName(seq))
		good, bad, err := replaySegment(cfg.FS, name, seq, fn)
		st.Records += good
		st.Segments++
		if err != nil {
			return st, err
		}
		if bad >= 0 {
			// Truncation: abandon the rest of this segment and every
			// later one.
			st.TruncatedBytes += bad
			st.TruncatedAt = segName(seq)
			for _, rest := range seqs[i+1:] {
				if fi, err := cfg.FS.Stat(filepath.Join(cfg.Dir, segName(rest))); err == nil {
					st.TruncatedBytes += fi.Size()
				}
			}
			return st, nil
		}
	}
	return st, nil
}

// replaySegment reads one segment. It returns the number of intact
// records replayed and, when the segment ends in a torn or corrupt
// frame (or a bad header), the count of abandoned bytes; bad < 0 means
// the segment was fully intact.
func replaySegment(fs diskfault.FS, path string, wantSeq uint64, fn func([]byte) error) (good int, bad int64, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close()
	size := int64(0)
	if fi, err := fs.Stat(path); err == nil {
		size = fi.Size()
	}
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, size, nil // torn header: whole segment abandoned
	}
	if [4]byte(hdr[:4]) != segMagic ||
		binary.LittleEndian.Uint32(hdr[4:8]) != segVersion ||
		binary.LittleEndian.Uint64(hdr[8:16]) != wantSeq {
		return 0, size, nil // foreign or corrupt header
	}
	off := int64(segHeaderSize)
	var fh [frameHeaderSize]byte
	for {
		n, rerr := io.ReadFull(f, fh[:])
		if rerr != nil {
			if n == 0 {
				return good, -1, nil // clean end of segment
			}
			return good, size - off, nil // torn frame header
		}
		length := binary.LittleEndian.Uint32(fh[0:4])
		want := binary.LittleEndian.Uint32(fh[4:8])
		if length == 0 || length > MaxRecordBytes || off+frameHeaderSize+int64(length) > size {
			return good, size - off, nil // implausible length: torn/corrupt
		}
		payload := make([]byte, length)
		if _, rerr := io.ReadFull(f, payload); rerr != nil {
			return good, size - off, nil // torn payload
		}
		if crc32.Checksum(payload, crcTable) != want {
			return good, size - off, nil // corrupt payload
		}
		if err := fn(payload); err != nil {
			return good, -1, err
		}
		good++
		off += frameHeaderSize + int64(length)
	}
}
