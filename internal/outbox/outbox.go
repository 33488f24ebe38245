// Package outbox implements the device-side store-and-forward queue that
// makes the BEES upload path partition-tolerant: when a batched upload
// exhausts its retry budget (the disaster link is down), the pipeline
// enqueues the chunk — feature sets, metadata, compressed sizes and the
// wire nonce the failed attempt used — instead of dropping the images.
// A background drainer replays queued chunks once the link heals; because
// the original nonce is preserved, the server's dedup window makes a
// replay of a chunk that actually landed (response lost) idempotent.
//
// The queue is bounded and disk-backed. With a directory configured,
// every chunk is persisted on enqueue as its own file (temp + rename, so
// a crash never leaves a torn chunk) and reloaded by Open after a device
// restart. When the queue overflows its capacity, or chunks outlive
// MaxAge, the lowest submodular-utility chunks are evicted first — under
// pressure the outbox sheds the images the in-batch summarizer valued
// least, exactly the CARE-style redundancy-elimination a disaster
// network needs.
package outbox

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bees/internal/diskfault"
	"bees/internal/features"
	"bees/internal/server"
	"bees/internal/telemetry"
	"bees/internal/wire"
)

// chunkMagic heads every on-disk chunk file.
var chunkMagic = [4]byte{'B', 'O', 'X', 'C'}

const chunkVersion = 1

// chunkExt is the on-disk chunk file suffix; files are named
// chunk-<seq>.box so a directory scan recovers enqueue order.
const chunkExt = ".box"

// errBadChunk reports a corrupt or incompatible chunk file. Corrupt
// files are skipped (and counted) on resume, never fatal — losing one
// chunk to a torn disk must not strand the rest of the queue.
var errBadChunk = errors.New("outbox: bad chunk")

// maxItemsPerChunk bounds decode-time allocation against corrupt counts.
const maxItemsPerChunk = 1 << 16

// maxDescriptorsPerSet mirrors the server snapshot loader's guard.
const maxDescriptorsPerSet = 1 << 16

// Config tunes an Outbox. The zero value is a memory-only queue with the
// documented defaults.
type Config struct {
	// Dir, when non-empty, is the spill directory: every chunk is
	// persisted there on Push and reloaded by Open, so queued uploads
	// survive a device restart. Empty keeps the queue in memory only.
	Dir string
	// MaxChunks bounds the queue; pushing beyond it evicts the
	// lowest-utility chunk (which may be the incoming one). Default 64.
	MaxChunks int
	// MaxAge, when positive, expires chunks that have waited longer than
	// this — stale situation-awareness imagery loses value, and the
	// paper's real-time framing prefers fresh coverage over a complete
	// backlog. Zero keeps chunks forever.
	MaxAge time.Duration
	// Telemetry receives the outbox gauges/counters (outbox.depth,
	// outbox.spilled, outbox.evicted, outbox.replayed, outbox.corrupt).
	// Nil disables instrumentation.
	Telemetry *telemetry.Registry
	// Now substitutes the clock for age-based eviction in tests.
	// Defaults to time.Now.
	Now func() time.Time
	// FS is the filesystem spill files go through. Defaults to the real
	// OS; tests substitute a diskfault-injecting wrapper to prove resume
	// survives torn and corrupted chunk files.
	FS diskfault.FS
}

func (c Config) withDefaults() Config {
	if c.MaxChunks <= 0 {
		c.MaxChunks = 64
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.FS == nil {
		c.FS = diskfault.OS()
	}
	return c
}

// Chunk is one queued upload: the items of a failed UploadItems call
// plus the replay bookkeeping.
type Chunk struct {
	// Nonce is the wire nonce the original (failed) upload attempt
	// carried. Replaying with the same nonce lets the server dedup a
	// chunk that was actually applied before the response was lost.
	Nonce uint64
	// Utility is the chunk's submodular utility (the summed SSMM
	// marginal gains of its images); eviction drops lowest first.
	Utility float64
	// EnqueuedAt is when the chunk entered the outbox (age eviction).
	EnqueuedAt time.Time
	// Items are the uploads to replay.
	Items []server.UploadItem

	seq  uint64 // enqueue order; also the on-disk filename
	file string // "" when not persisted
}

// Stats is a point-in-time outbox summary.
type Stats struct {
	// Depth is the number of queued chunks; Items the images they hold.
	Depth int
	Items int
	// Spilled/Evicted/Replayed/Corrupt are lifetime counters: chunks
	// persisted to disk, dropped by capacity/age pressure, acked after
	// successful replay, and skipped as unreadable on resume.
	Spilled  int64
	Evicted  int64
	Replayed int64
	Corrupt  int64
}

// Outbox is a bounded, disk-backed FIFO of pending upload chunks. All
// methods are safe for concurrent use (the pipeline pushes from its
// upload goroutine while a drainer pops).
type Outbox struct {
	cfg Config

	mu      sync.Mutex
	chunks  []*Chunk // ascending seq (enqueue order)
	nextSeq uint64

	depth                                *telemetry.Gauge
	spilled, evicted, replayed, corrupt  *telemetry.Counter
	nSpilled, nEvicted, nReplayed, nCorr int64
}

// Open creates an outbox. With cfg.Dir set, the directory is created if
// needed and any chunks a previous process left behind are reloaded in
// enqueue order; unreadable files are skipped and counted, never fatal.
func Open(cfg Config) (*Outbox, error) {
	cfg = cfg.withDefaults()
	tel := cfg.Telemetry // nil-safe no-op sinks
	b := &Outbox{
		cfg:      cfg,
		depth:    tel.Gauge("outbox.depth"),
		spilled:  tel.Counter("outbox.spilled"),
		evicted:  tel.Counter("outbox.evicted"),
		replayed: tel.Counter("outbox.replayed"),
		corrupt:  tel.Counter("outbox.corrupt"),
	}
	if cfg.Dir == "" {
		return b, nil
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("outbox: create dir: %w", err)
	}
	entries, err := cfg.FS.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("outbox: scan dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if filepath.Ext(e.Name()) != chunkExt {
			// A crash mid-Push can strand a chunk-*.box.tmp; it was never
			// renamed into place, so it was never enqueued — sweep it.
			if filepath.Ext(e.Name()) == ".tmp" {
				cfg.FS.Remove(filepath.Join(cfg.Dir, e.Name()))
			}
			continue
		}
		path := filepath.Join(cfg.Dir, e.Name())
		c, err := readChunkFile(cfg.FS, path)
		if err != nil {
			b.nCorr++
			b.corrupt.Inc()
			cfg.FS.Remove(path)
			continue
		}
		c.file = path
		b.chunks = append(b.chunks, c)
		if c.seq >= b.nextSeq {
			b.nextSeq = c.seq + 1
		}
	}
	sort.Slice(b.chunks, func(i, j int) bool { return b.chunks[i].seq < b.chunks[j].seq })
	b.depth.Set(float64(len(b.chunks)))
	return b, nil
}

// Push enqueues one failed upload chunk, persisting it when a spill
// directory is configured, then enforces the age and capacity bounds.
func (b *Outbox) Push(nonce uint64, utility float64, items []server.UploadItem) error {
	if len(items) == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := &Chunk{
		Nonce:      nonce,
		Utility:    utility,
		EnqueuedAt: b.cfg.Now(),
		Items:      items,
		seq:        b.nextSeq,
	}
	b.nextSeq++
	if b.cfg.Dir != "" {
		path := filepath.Join(b.cfg.Dir, fmt.Sprintf("chunk-%016x%s", c.seq, chunkExt))
		if err := writeChunkFile(b.cfg.FS, path, c); err != nil {
			return err
		}
		c.file = path
		b.nSpilled++
		b.spilled.Inc()
	}
	b.chunks = append(b.chunks, c)
	b.expireLocked()
	for len(b.chunks) > b.cfg.MaxChunks {
		b.evictLocked(b.lowestUtilityLocked())
	}
	b.depth.Set(float64(len(b.chunks)))
	return nil
}

// Peek returns the oldest queued chunk without removing it, after
// expiring anything past MaxAge. The drainer replays the returned chunk
// and calls Ack on success; a failed replay simply leaves it queued.
func (b *Outbox) Peek() (*Chunk, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.expireLocked()
	b.depth.Set(float64(len(b.chunks)))
	if len(b.chunks) == 0 {
		return nil, false
	}
	return b.chunks[0], true
}

// Ack removes a successfully replayed chunk (and its spill file).
func (b *Outbox) Ack(c *Chunk) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, q := range b.chunks {
		if q.seq == c.seq {
			b.chunks = append(b.chunks[:i], b.chunks[i+1:]...)
			if q.file != "" {
				b.cfg.FS.Remove(q.file)
			}
			b.nReplayed++
			b.replayed.Inc()
			break
		}
	}
	b.depth.Set(float64(len(b.chunks)))
}

// Len returns the number of queued chunks.
func (b *Outbox) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.chunks)
}

// Stats returns a point-in-time summary.
func (b *Outbox) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	items := 0
	for _, c := range b.chunks {
		items += len(c.Items)
	}
	return Stats{
		Depth:    len(b.chunks),
		Items:    items,
		Spilled:  b.nSpilled,
		Evicted:  b.nEvicted,
		Replayed: b.nReplayed,
		Corrupt:  b.nCorr,
	}
}

// expireLocked drops chunks older than MaxAge. Callers hold b.mu.
func (b *Outbox) expireLocked() {
	if b.cfg.MaxAge <= 0 {
		return
	}
	cutoff := b.cfg.Now().Add(-b.cfg.MaxAge)
	for i := 0; i < len(b.chunks); {
		if b.chunks[i].EnqueuedAt.Before(cutoff) {
			b.evictLocked(i)
			continue
		}
		i++
	}
}

// lowestUtilityLocked returns the index of the chunk to evict under
// capacity pressure: lowest utility, oldest on ties.
func (b *Outbox) lowestUtilityLocked() int {
	best := 0
	for i, c := range b.chunks {
		if c.Utility < b.chunks[best].Utility {
			best = i
		}
	}
	return best
}

func (b *Outbox) evictLocked(i int) {
	c := b.chunks[i]
	b.chunks = append(b.chunks[:i], b.chunks[i+1:]...)
	if c.file != "" {
		b.cfg.FS.Remove(c.file)
	}
	b.nEvicted++
	b.evicted.Inc()
}

// --- on-disk chunk format -------------------------------------------------
//
// magic "BOXC" | u64 version | u64 seq | u64 nonce | f64 utility |
// u64 enqueuedAt (unix nanos) | u64 itemCount | items…
// item: u64 groupID | f64 lat | f64 lon | u64 bytes | u64 setLen |
//       setLen × 32-byte descriptors
//
// Integers little-endian, floats as IEEE-754 bits — the conventions of
// the wire protocol and the server snapshot, written with the wire
// package's append helpers and read back through wire.Reader. A chunk
// file is small and replaced atomically, so it is built and read whole.
// The optional Global descriptor of UploadMeta is not persisted (the
// pipeline never sets it on upload items; a reloaded chunk replays with
// Global nil).

func writeChunkFile(fs diskfault.FS, path string, c *Chunk) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("outbox: create chunk: %w", err)
	}
	// The magic goes out in its own Write ahead of the body. A chunk has
	// no checksum, so a write the disk corrupts is caught on resume only
	// where it breaks a field the decoder checks; any change to the
	// magic is caught.
	b := encodeChunk(c)
	_, err = f.Write(b[:len(chunkMagic)])
	if err == nil {
		_, err = f.Write(b[len(chunkMagic):])
	}
	// Sync before rename: a chunk visible under its final name must be
	// fully on disk, or a post-crash resume could reload a torn file.
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err == nil {
		// Make the rename itself durable, like the WAL and snapshot paths.
		err = fs.SyncDir(filepath.Dir(path))
	}
	if err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("outbox: persist chunk: %w", err)
	}
	return nil
}

func encodeChunk(c *Chunk) []byte {
	u64 := binary.LittleEndian.AppendUint64
	b := append([]byte(nil), chunkMagic[:]...)
	b = u64(b, chunkVersion)
	b = u64(b, c.seq)
	b = u64(b, c.Nonce)
	b = u64(b, math.Float64bits(c.Utility))
	b = u64(b, uint64(c.EnqueuedAt.UnixNano()))
	b = u64(b, uint64(len(c.Items)))
	for i := range c.Items {
		m := &c.Items[i].Meta
		b = u64(b, uint64(m.GroupID))
		b = u64(b, math.Float64bits(m.Lat))
		b = u64(b, math.Float64bits(m.Lon))
		b = u64(b, uint64(m.Bytes))
		var ds []features.Descriptor
		if set := c.Items[i].Set; set != nil {
			ds = set.Descriptors
		}
		b = u64(b, uint64(len(ds)))
		b = wire.AppendDescriptors(b, ds)
	}
	return b
}

func readChunkFile(fs diskfault.FS, path string) (*Chunk, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	return decodeChunk(b)
}

func decodeChunk(b []byte) (*Chunk, error) {
	r := wire.NewReader(b)
	magic, version := r.Bytes(len(chunkMagic)), r.U64()
	c := &Chunk{seq: r.U64(), Nonce: r.U64(), Utility: r.F64(), EnqueuedAt: time.Unix(0, int64(r.U64()))}
	count := r.U64()
	if !bytes.Equal(magic, chunkMagic[:]) || version != chunkVersion || count > maxItemsPerChunk {
		return nil, errBadChunk
	}
	for i := uint64(0); i < count && r.Err() == nil; i++ {
		it := server.UploadItem{Meta: server.UploadMeta{GroupID: int64(r.U64()), Lat: r.F64(), Lon: r.F64(), Bytes: int(r.U64())}}
		n := r.U64()
		if n > maxDescriptorsPerSet {
			return nil, errBadChunk
		}
		if n > 0 {
			it.Set = &features.BinarySet{Descriptors: r.Descriptors(int(n))}
		}
		c.Items = append(c.Items, it)
	}
	// Trailing bytes mean the file is not what we wrote.
	if r.Done() != nil {
		return nil, errBadChunk
	}
	return c, nil
}
