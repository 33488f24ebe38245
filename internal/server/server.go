// Package server implements the BEES cloud server: a feature index for
// redundancy queries plus a blob store for uploaded images. The same
// implementation backs both the in-process fast path used by the
// simulations and the TCP endpoint in cmd/beesd (via internal/wire).
package server

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	"bees/internal/blockstore"
	"bees/internal/diskfault"
	"bees/internal/features"
	"bees/internal/index"
	"bees/internal/telemetry"
	"bees/internal/wal"
)

// UploadMeta carries the image metadata the evaluation needs.
type UploadMeta struct {
	GroupID int64
	Lat     float64
	Lon     float64
	// Bytes is the uploaded (possibly compressed) file size.
	Bytes int
	// Gain is the image's submodular marginal gain from SSMM selection
	// (0 = unranked). It rides along for utility-aware admission and the
	// scenario harness; it is not persisted in snapshots.
	Gain float64
	// Global is an optional global (histogram) descriptor; metadata-based
	// schemes like PhotoNet query it via QueryNearby.
	Global *features.GlobalDescriptor
}

// Stats summarizes server state.
type Stats struct {
	Images        int
	BytesReceived int64
}

// UploadItem is one image in a batched upload: its (possibly nil)
// feature set plus the evaluation metadata. A nil set (Direct Upload
// sends no features) stores the image without indexing it.
type UploadItem struct {
	Set  *features.BinarySet
	Meta UploadMeta
}

// Config configures a Server beyond the index parameters.
type Config struct {
	// Index is the similarity-index configuration. The zero value
	// selects index.DefaultConfig().
	Index index.Config
	// Telemetry receives the server's index counters (queries, uploads).
	// Nil disables instrumentation.
	Telemetry *telemetry.Registry
	// BlockSize is the content-addressed block granularity for the block
	// store (see internal/blockstore). 0 selects the 128 KiB default.
	BlockSize int
	// FS is the filesystem snapshots are saved through. Nil selects the
	// real filesystem; chaos tests substitute a diskfault.Faulty.
	FS diskfault.FS
}

// ErrDurability marks a server that failed a write-ahead-log append.
// Memory and log have diverged, so every later mutation is refused: the
// un-acked frame must NOT be re-acknowledged from state the disk never
// saw. The process restarts and recovers from snapshot + WAL.
var ErrDurability = errors.New("server: write-ahead log failure, mutations refused")

// Server is a thread-safe cloud server.
type Server struct {
	// stateMu draws the snapshot cut: every mutator (apply + WAL append)
	// holds it for read, SaveSnapshot holds it for write, so each WAL
	// record is atomically either fully inside a snapshot or fully
	// replayable on top of it — never half of each.
	stateMu  sync.RWMutex
	mu       sync.Mutex
	idx      *index.Index
	tel      *telemetry.Registry
	blocks   *blockstore.Store
	fs       diskfault.FS
	nextID   index.ImageID
	received int64
	uploads  []index.ImageID
	metas    []UploadMeta
	// seedMetas holds metadata of SeedIndex'd images: queryable (they
	// represent previously-uploaded content) but never counted as
	// uploads of the experiment under measurement.
	seedMetas []UploadMeta

	// wal, when attached, receives one record per acknowledged mutation.
	// dedup is the nonce retry window; it lives on the Server (not the
	// TCP layer) so recovery can reseed it from replayed records.
	wal    *wal.Log
	dedup  *uploadDedup
	durMu  sync.Mutex
	durErr error
	// prevSealed lags WAL truncation one checkpoint behind: segments are
	// deleted only once covered by the *previous* snapshot generation, so
	// the retained ".1" snapshot plus the remaining log always rebuild
	// full state even when the primary snapshot is corrupt.
	ckptMu     sync.Mutex
	prevSealed uint64
}

// New creates a server with the given index configuration.
func New(cfg index.Config) *Server {
	return NewWithConfig(Config{Index: cfg})
}

// NewWithConfig creates a server with full configuration.
func NewWithConfig(cfg Config) *Server {
	if cfg.Index == (index.Config{}) {
		cfg.Index = index.DefaultConfig()
	}
	if cfg.FS == nil {
		cfg.FS = diskfault.OS()
	}
	return &Server{
		idx: index.New(cfg.Index),
		tel: cfg.Telemetry,
		fs:  cfg.FS,
		blocks: blockstore.NewStore(blockstore.Config{
			BlockSize: cfg.BlockSize,
			Telemetry: cfg.Telemetry,
		}),
		dedup: newUploadDedup(4096),
	}
}

// AttachWAL makes the server append every acknowledged mutation to l.
// Attach before serving traffic; Recover does this for beesd.
func (s *Server) AttachWAL(l *wal.Log) { s.wal = l }

// WAL returns the attached log (nil when running without one).
func (s *Server) WAL() *wal.Log { return s.wal }

// durabilityErr reports whether a WAL append has ever failed.
func (s *Server) durabilityErr() error {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	return s.durErr
}

// failDurability poisons the server after a WAL append failure.
func (s *Server) failDurability(err error) {
	s.durMu.Lock()
	if s.durErr == nil {
		s.durErr = fmt.Errorf("%w: %v", ErrDurability, err)
		s.tel.Counter("server.wal.failures").Inc()
	}
	s.durMu.Unlock()
}

// logRecord appends an encoded record to the WAL, if one is attached,
// and poisons the server on failure. sync waits until the record is
// durable per the log's policy; a staged block passes false and is made
// durable by the fsync of the commit that names it.
func (s *Server) logRecord(rec []byte, sync bool) error {
	if s.wal == nil {
		return nil
	}
	appendRec := s.wal.Append
	if !sync {
		appendRec = s.wal.AppendNoSync
	}
	if err := appendRec(rec); err != nil {
		s.failDurability(err)
		return s.durabilityErr()
	}
	return nil
}

// NewDefault creates a server with the default index configuration.
func NewDefault() *Server { return New(index.DefaultConfig()) }

// QueryTopK returns the K most similar stored images.
func (s *Server) QueryTopK(set *features.BinarySet, k int) []index.Result {
	return s.idx.QueryTopK(set, k)
}

// QueryMaxBatch answers the CBRD query for a whole batch at once: one
// maximum similarity per set, in order. The per-set queries run across
// all host cores.
func (s *Server) QueryMaxBatch(sets []*features.BinarySet) []float64 {
	s.tel.Counter("server.index.queries").Add(int64(len(sets)))
	return s.idx.QueryMaxBatch(sets)
}

// commit is the one write path: every upload and commit entry point —
// in-process, TCP frame, cluster shard replica — lowers onto it, and WAL
// replay reuses its install step. A nil ids asks the server to allocate
// IDs; a nil manifests means the payload arrived inline. The steps run
// in a fixed order under the snapshot cut: dedup gate, durability check,
// empty-batch no-op, validate, pin, install, WAL append, record. hit
// reports a nonce replay that returned the recorded IDs without applying
// anything.
//
// The gate reserves a fresh nonce until the commit settles, so a retry
// that overlaps a slow original (parked in an fsync, say) waits for it
// and gets its IDs instead of applying twice; a failed original leaves
// the nonce unrecorded for the retry to apply.
func (s *Server) commit(nonce uint64, ids []int64, items []UploadItem, manifests []blockstore.Manifest) (out []int64, hit bool, err error) {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	var prev []int64
	if nonce != 0 {
		if prev, hit = s.dedup.claim(nonce); !hit {
			defer func() { s.dedup.settle(nonce, out) }()
		}
	}
	// Checked after the gate: a retry that waited on a failed original
	// must not apply to a server that failure poisoned.
	if err := s.durabilityErr(); err != nil {
		return nil, false, err
	}
	if hit {
		return prev, true, nil
	}
	// An empty batch never claims the nonce: recording an empty ID slice
	// would poison it for a retry carrying real items.
	if len(items) == 0 {
		return nil, false, nil
	}
	if manifests != nil {
		// Meta.Bytes must equal the manifest total, so an image uploaded by
		// blocks is byte-identical in Stats to one uploaded whole.
		for i := range manifests {
			if got, want := int64(items[i].Meta.Bytes), manifests[i].TotalBytes; got != want {
				return nil, false, fmt.Errorf("server: manifest %d: meta bytes %d != manifest total %d", i, got, want)
			}
		}
		// All-or-nothing: on a missing block nothing is pinned or stored.
		if err := s.blocks.Commit(manifests...); err != nil {
			return nil, false, err
		}
	}
	ids = s.install(ids, items)
	s.tel.Counter("server.index.uploads").Add(int64(len(items)))
	if err := s.logRecord(encodeCommitRecord(nonce, ids, items, manifests), true); err != nil {
		return nil, false, err
	}
	return ids, false, nil
}

// install applies one commit to memory: IDs allocated from nextID when
// ids is nil, bytes accounted and history appended in item order, nextID
// advanced past the largest ID (replayed and router-assigned IDs need not
// arrive in order), then the feature sets indexed as one batch, so a query
// sees all of the commit's images or none of them (items without a set
// are stored unindexed). Callers hold stateMu for read, or are recovery,
// which runs alone.
func (s *Server) install(ids []int64, items []UploadItem) []int64 {
	s.mu.Lock()
	if ids == nil {
		ids = make([]int64, len(items))
		for i := range ids {
			ids[i] = int64(s.nextID) + int64(i)
		}
	}
	for i := range items {
		s.received += int64(items[i].Meta.Bytes)
		s.uploads = append(s.uploads, index.ImageID(ids[i]))
		s.metas = append(s.metas, items[i].Meta)
		if next := index.ImageID(ids[i]) + 1; next > s.nextID {
			s.nextID = next
		}
	}
	s.mu.Unlock()
	entries := make([]*index.Entry, len(items))
	for i, it := range items {
		entries[i] = &index.Entry{
			ID:      index.ImageID(ids[i]),
			Set:     it.Set,
			GroupID: it.Meta.GroupID,
			Lat:     it.Meta.Lat,
			Lon:     it.Meta.Lon,
		}
	}
	s.idx.AddBatch(entries)
	return ids
}

// countHit charges a nonce replay to the server's registry and drops the
// hit flag, for the exported wrappers over commit.
func (s *Server) countHit(ids []int64, hit bool, err error) ([]int64, error) {
	if hit {
		s.tel.Counter("server.upload.dedup_hits").Inc()
	}
	return ids, err
}

// SeedIndex inserts features without counting upload bytes — used by
// experiments that pre-populate the server to set a cross-batch
// redundancy ratio ("by adding the redundant images into the servers").
func (s *Server) SeedIndex(set *features.BinarySet, meta UploadMeta) index.ImageID {
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.seedMetas = append(s.seedMetas, meta)
	s.mu.Unlock()
	s.idx.Add(&index.Entry{
		ID:      id,
		Set:     set,
		GroupID: meta.GroupID,
		Lat:     meta.Lat,
		Lon:     meta.Lon,
	})
	return id
}

// UploadedMetas returns the metadata of every uploaded image (not
// seeds), in arrival order — the coverage experiment reads geotags from
// here.
func (s *Server) UploadedMetas() []UploadMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]UploadMeta(nil), s.metas...)
}

// QueryNearby is the metadata-based redundancy primitive used by
// PhotoNet-style schemes: among stored images whose geotag lies within
// radiusDeg (Chebyshev distance in degrees) of (lat, lon) and that carry
// a global descriptor, it returns the maximum histogram-intersection
// similarity to g (0 when none qualify).
func (s *Server) QueryNearby(lat, lon, radiusDeg float64, g features.GlobalDescriptor) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := 0.0
	for _, metas := range [][]UploadMeta{s.metas, s.seedMetas} {
		for i := range metas {
			m := &metas[i]
			if m.Global == nil {
				continue
			}
			if abs(m.Lat-lat) > radiusDeg || abs(m.Lon-lon) > radiusDeg {
				continue
			}
			if sim := m.Global.Intersect(g); sim > best {
				best = sim
			}
		}
	}
	return best
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Stats returns upload counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Images: len(s.uploads), BytesReceived: s.received}
}

// Blocks exposes the server's content-addressed block store: the TCP
// layer stages incoming blocks here and a manifest commit pins them.
func (s *Server) Blocks() *blockstore.Store { return s.blocks }

// NewUploadNonce returns a fresh non-zero nonce (core.ServerAPI). It is
// random, not a per-process count: Recover refills the dedup window from
// the WAL, so a restarted process counting from 1 would have new uploads
// answered with its predecessor's IDs.
func (s *Server) NewUploadNonce() uint64 {
	for {
		if n := rand.Uint64(); n != 0 {
			return n
		}
	}
}

// UploadItems stores a batch exactly once per nonce: a retried nonce —
// whether the original ack was lost on the wire, is still in flight, or
// was recovered from the WAL after a crash — replays the originally
// assigned IDs instead of storing twice. A bare-nonce retry (no items)
// replays too. The record is durable per the WAL sync policy before the
// call returns; a WAL failure refuses the upload (and all later ones) so
// memory never runs further ahead of the disk.
func (s *Server) UploadItems(nonce uint64, items []UploadItem) ([]int64, error) {
	return s.countHit(s.commit(nonce, nil, items, nil))
}

// StageBlock stages one content-addressed block: verify, log, publish.
// The data is checked against h once; a block the store already holds
// is a dedup hit (stored == false) and is not logged. Otherwise the
// block's record is appended to the WAL without waiting for an fsync,
// and only then is the block inserted where HaveBitmap and commit can
// see it. So every commit that names the block sits after its record in
// the log, and the commit's fsync makes both durable: a commit never
// outlives a block it names. The ack therefore means staged, not
// durable — a crash may forget the block, and the client's retry
// re-queries and re-sends it before committing again.
func (s *Server) StageBlock(h blockstore.Hash, data []byte) (stored bool, err error) {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if err := s.durabilityErr(); err != nil {
		return false, err
	}
	var log func() error
	if s.wal != nil {
		log = func() error { return s.logRecord(encodeBlockPutRecord(h, data), false) }
	}
	return s.blocks.Stage(h, data, log)
}

// ManifestUpload is one image arriving by manifest rather than by blob:
// the metadata and feature set as usual, plus the block manifest whose
// payload must already be fully staged in the block store.
type ManifestUpload struct {
	Set      *features.BinarySet
	Meta     UploadMeta
	Manifest blockstore.Manifest
}

// CommitManifestsNonce completes a delta upload exactly once per nonce:
// it verifies every named block is present, pins the blocks (refcount +1
// per manifest), then stores the images through the same commit
// in-process inline uploads take. On any missing block nothing is
// committed and nothing is stored; a retried nonce replays the original
// IDs without double-pinning blocks, even when the original commit
// survives only in the WAL.
func (s *Server) CommitManifestsNonce(nonce uint64, ups []ManifestUpload) ([]int64, error) {
	items, manifests := splitUploads(ups)
	return s.countHit(s.commit(nonce, nil, items, manifests))
}

// splitUploads separates manifest uploads into the items and manifests
// commit takes.
func splitUploads(ups []ManifestUpload) ([]UploadItem, []blockstore.Manifest) {
	items := make([]UploadItem, len(ups))
	manifests := make([]blockstore.Manifest, len(ups))
	for i := range ups {
		items[i] = UploadItem{Set: ups[i].Set, Meta: ups[i].Meta}
		manifests[i] = ups[i].Manifest
	}
	return items, manifests
}

// uploadDedup remembers the IDs assigned to recent upload nonces — one
// ID for a single upload, the full slice for a batch. The window is
// bounded FIFO: old nonces fall out once the client's retry horizon has
// long passed. Nonces whose commit is still in flight are reserved, so
// concurrent arrivals of one nonce apply once.
type uploadDedup struct {
	mu       sync.Mutex
	ids      map[uint64][]int64
	order    []uint64
	limit    int
	inflight map[uint64]chan struct{}
}

func newUploadDedup(limit int) *uploadDedup {
	return &uploadDedup{
		ids:      make(map[uint64][]int64),
		limit:    limit,
		inflight: make(map[uint64]chan struct{}),
	}
}

// claim is the dedup gate: a recorded nonce returns its IDs (hit);
// otherwise the caller reserves the nonce and must settle it. A second
// arrival for a reserved nonce waits for the settle and looks again, so
// it gets the first's IDs — or, if the first failed, the reservation.
func (d *uploadDedup) claim(nonce uint64) (ids []int64, hit bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if ids, ok := d.ids[nonce]; ok {
			return ids, true
		}
		settled, busy := d.inflight[nonce]
		if !busy {
			d.inflight[nonce] = make(chan struct{})
			return nil, false
		}
		d.mu.Unlock()
		<-settled
		d.mu.Lock()
	}
}

// settle releases a claimed reservation, first recording ids when the
// commit applied them (nil leaves the nonce free for a retry).
func (d *uploadDedup) settle(nonce uint64, ids []int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recordLocked(nonce, ids)
	close(d.inflight[nonce])
	delete(d.inflight, nonce)
}

// entries returns the window in FIFO order (oldest first), copied so
// replica sync can serialize it without holding the lock.
func (d *uploadDedup) entries() []DedupEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]DedupEntry, 0, len(d.order))
	for _, nonce := range d.order {
		out = append(out, DedupEntry{
			Nonce: nonce,
			IDs:   append([]int64(nil), d.ids[nonce]...),
		})
	}
	return out
}

// record installs a window entry outside the gate (WAL replay, replica
// sync). Nonce 0 and empty ID lists are never recorded: an empty entry
// would answer a retry that carries real items with no IDs.
func (d *uploadDedup) record(nonce uint64, ids []int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recordLocked(nonce, ids)
}

func (d *uploadDedup) recordLocked(nonce uint64, ids []int64) {
	if nonce == 0 || len(ids) == 0 {
		return
	}
	if _, ok := d.ids[nonce]; ok {
		return
	}
	if len(d.order) >= d.limit {
		oldest := d.order[0]
		d.order = d.order[1:]
		delete(d.ids, oldest)
	}
	d.ids[nonce] = ids
	d.order = append(d.order, nonce)
}
