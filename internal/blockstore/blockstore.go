// Package blockstore implements the content-addressed block layer of
// the BEES upload path: compressed image payloads are split into
// fixed-size blocks keyed by SHA-256, a manifest names an image as an
// ordered hash list, and a refcounted server-side store keeps each
// distinct block exactly once no matter how many images — or users —
// reference it.
//
// The transfer model follows syncthing's Block Exchange Protocol:
// 128 KiB blocks by default, and a sender first asks which blocks the
// receiver already holds, then ships only the missing ones. That gives
// two properties the paper's lossy links need: a retry after a severed
// connection resumes from the last block the server acknowledged
// (blocks already landed are reported as held and skipped), and two
// users uploading byte-identical imagery transfer and store the payload
// once (CARE-style cross-user redundancy elimination, complementing
// BEES's feature-level dedup).
//
// Lifecycle: blocks arrive via Put — or Stage, which lets the caller log
// a block between verifying and publishing it — in a staged state
// (refcount 0). A manifest commit (Commit) verifies every referenced
// block is present and then takes one reference per occurrence,
// all-or-nothing; Release undoes a commit's references. Staged blocks
// are retained — they are the resume window for a mid-image transfer —
// and blocks are never evicted by the store itself, so a snapshot round
// trip preserves both data and refcounts exactly.
package blockstore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"bees/internal/telemetry"
)

// DefaultBlockSize is the syncthing-style 128 KiB default block size.
const DefaultBlockSize = 128 << 10

// MaxBlockSize bounds the configurable block size so one block always
// fits comfortably inside a wire frame.
const MaxBlockSize = 16 << 20

// Hash is the SHA-256 content address of one block.
type Hash [32]byte

// HashBlock returns the content address of a block.
func HashBlock(data []byte) Hash { return sha256.Sum256(data) }

// Short returns an abbreviated hex form for error messages and logs.
func (h Hash) Short() string { return fmt.Sprintf("%x", h[:8]) }

// Manifest names one image payload as an ordered list of block hashes.
// Every block is exactly BlockSize bytes except the last, which holds
// the remainder (an empty payload has zero blocks).
type Manifest struct {
	// TotalBytes is the exact payload length the hashes reassemble to.
	TotalBytes int64
	// BlockSize is the split size the hashes were computed at.
	BlockSize int
	// Hashes are the block addresses in payload order.
	Hashes []Hash
}

// NumBlocks returns how many blocks a payload of totalBytes splits into
// at blockSize.
func NumBlocks(totalBytes int64, blockSize int) int {
	if totalBytes <= 0 || blockSize <= 0 {
		return 0
	}
	return int((totalBytes + int64(blockSize) - 1) / int64(blockSize))
}

// Split cuts a payload into blockSize-sized slices of the original
// backing array (no copies); the last block carries the remainder.
func Split(blob []byte, blockSize int) [][]byte {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	n := NumBlocks(int64(len(blob)), blockSize)
	blocks := make([][]byte, 0, n)
	for start := 0; start < len(blob); start += blockSize {
		end := start + blockSize
		if end > len(blob) {
			end = len(blob)
		}
		blocks = append(blocks, blob[start:end:end])
	}
	return blocks
}

// ManifestOf splits a payload and hashes every block.
func ManifestOf(blob []byte, blockSize int) Manifest {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	blocks := Split(blob, blockSize)
	m := Manifest{TotalBytes: int64(len(blob)), BlockSize: blockSize, Hashes: make([]Hash, len(blocks))}
	for i, b := range blocks {
		m.Hashes[i] = HashBlock(b)
	}
	return m
}

// BlockLen returns the byte length of block i of the manifest.
func (m *Manifest) BlockLen(i int) int {
	if i < 0 || i >= len(m.Hashes) {
		return 0
	}
	if i == len(m.Hashes)-1 {
		if rem := int(m.TotalBytes % int64(m.BlockSize)); rem != 0 {
			return rem
		}
	}
	return m.BlockSize
}

// Validate checks the manifest's internal consistency: a sane block
// size and a hash count matching TotalBytes. Wire decoders accept any
// well-framed manifest; the store validates before committing.
func (m *Manifest) Validate() error {
	if m.BlockSize <= 0 || m.BlockSize > MaxBlockSize {
		return fmt.Errorf("blockstore: bad block size %d", m.BlockSize)
	}
	if m.TotalBytes < 0 {
		return fmt.Errorf("blockstore: negative payload length %d", m.TotalBytes)
	}
	if want := NumBlocks(m.TotalBytes, m.BlockSize); len(m.Hashes) != want {
		return fmt.Errorf("blockstore: manifest names %d blocks for %d bytes at block size %d (want %d)",
			len(m.Hashes), m.TotalBytes, m.BlockSize, want)
	}
	return nil
}

// Config parameterizes a Store (and, on the client, the split size used
// to build manifests). The zero value selects the defaults.
type Config struct {
	// BlockSize is the content-addressed split size. Default 128 KiB.
	BlockSize int
	// Telemetry receives the store's block counters ("blockstore.*").
	// Nil disables instrumentation.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.BlockSize > MaxBlockSize {
		c.BlockSize = MaxBlockSize
	}
	return c
}

// ErrMissingBlock reports a commit that references a block the store
// does not hold; the commit took no references.
var ErrMissingBlock = errors.New("blockstore: missing block")

// ErrHashMismatch reports a Put whose data does not hash to the claimed
// address; the block was not stored.
var ErrHashMismatch = errors.New("blockstore: block data does not match hash")

// Stats summarizes a store.
type Stats struct {
	// Blocks and Bytes count the distinct blocks physically stored.
	Blocks int
	Bytes  int64
	// Refs and LogicalBytes count committed references: LogicalBytes is
	// what the same images would occupy without dedup, so
	// LogicalBytes − Bytes (for fully committed stores) is the byte-level
	// saving.
	Refs         int64
	LogicalBytes int64
}

type blockEntry struct {
	data []byte
	refs int64
}

// Store is a thread-safe refcounted content-addressed block store.
type Store struct {
	cfg Config

	mu      sync.Mutex
	blocks  map[Hash]*blockEntry
	bytes   int64
	refs    int64
	logical int64

	// Counters are resolved once at construction so the hot path never
	// takes the registry lock (nil-safe throughout).
	puts       *telemetry.Counter
	putBytes   *telemetry.Counter
	dupPuts    *telemetry.Counter
	dedupBytes *telemetry.Counter
	commits    *telemetry.Counter
	commitRefs *telemetry.Counter
}

// NewStore creates an empty store.
func NewStore(cfg Config) *Store {
	cfg = cfg.withDefaults()
	return &Store{
		cfg:        cfg,
		blocks:     make(map[Hash]*blockEntry),
		puts:       cfg.Telemetry.Counter("blockstore.put.blocks"),
		putBytes:   cfg.Telemetry.Counter("blockstore.put.bytes"),
		dupPuts:    cfg.Telemetry.Counter("blockstore.put.dup_blocks"),
		dedupBytes: cfg.Telemetry.Counter("blockstore.dedup.bytes"),
		commits:    cfg.Telemetry.Counter("blockstore.commit.manifests"),
		commitRefs: cfg.Telemetry.Counter("blockstore.commit.refs"),
	}
}

// BlockSize returns the configured split size.
func (s *Store) BlockSize() int { return s.cfg.BlockSize }

// Has reports whether the store holds the block (staged or committed).
func (s *Store) Has(h Hash) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blocks[h]
	return ok
}

// HaveBitmap reports, per hash in order, whether the store holds the
// block — the server side of a wire.BlockQuery.
func (s *Store) HaveBitmap(hashes []Hash) []bool {
	have := make([]bool, len(hashes))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, h := range hashes {
		_, have[i] = s.blocks[h]
	}
	return have
}

// Put stages a block under its content address, verifying the data
// actually hashes to h. Putting a block the store already holds is the
// dedup hit: nothing is stored and stored=false. Staged blocks carry
// refcount 0 until a manifest commits them.
func (s *Store) Put(h Hash, data []byte) (stored bool, err error) {
	return s.Stage(h, data, nil)
}

// Stage is Put with a step between verifying and publishing: the data
// is checked against h once, a block the store already holds returns
// stored=false without calling log, and otherwise log (when non-nil)
// runs before the block becomes visible to Has, HaveBitmap and Commit.
// If log fails nothing is stored and its error is returned. A server
// logs the block there, so no commit can name a block whose record is
// not already in the log ahead of it.
func (s *Store) Stage(h Hash, data []byte, log func() error) (stored bool, err error) {
	if len(data) == 0 || len(data) > MaxBlockSize {
		return false, fmt.Errorf("blockstore: bad block length %d", len(data))
	}
	if HashBlock(data) != h {
		return false, fmt.Errorf("%w: %s", ErrHashMismatch, h.Short())
	}
	if s.Has(h) {
		s.countDup(len(data))
		return false, nil
	}
	if log != nil {
		if err := log(); err != nil {
			return false, err
		}
	}
	// A concurrent Stage of the same block may have won since the check
	// above; its record and this one are both in the log, and replay
	// dedups them like any other duplicate.
	s.mu.Lock()
	if _, ok := s.blocks[h]; ok {
		s.mu.Unlock()
		s.countDup(len(data))
		return false, nil
	}
	owned := append([]byte(nil), data...)
	s.blocks[h] = &blockEntry{data: owned}
	s.bytes += int64(len(owned))
	s.mu.Unlock()
	s.puts.Inc()
	s.putBytes.Add(int64(len(data)))
	return true, nil
}

// countDup charges one dedup hit of n bytes.
func (s *Store) countDup(n int) {
	s.dupPuts.Inc()
	s.dedupBytes.Add(int64(n))
}

// Get returns a copy of a stored block.
func (s *Store) Get(h Hash) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blocks[h]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), e.data...), true
}

// RefCount returns a block's committed reference count (-1 when the
// store does not hold the block at all).
func (s *Store) RefCount(h Hash) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blocks[h]
	if !ok {
		return -1
	}
	return e.refs
}

// Commit takes one reference per hash occurrence across all manifests,
// all-or-nothing: if any referenced block is missing (or a manifest is
// inconsistent) no references are taken and the error names the first
// offending block.
func (s *Store) Commit(ms ...Manifest) error {
	for i := range ms {
		if err := ms[i].Validate(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range ms {
		for _, h := range ms[i].Hashes {
			if _, ok := s.blocks[h]; !ok {
				return fmt.Errorf("%w: %s", ErrMissingBlock, h.Short())
			}
		}
	}
	nrefs := int64(0)
	for i := range ms {
		for _, h := range ms[i].Hashes {
			s.blocks[h].refs++
			nrefs++
		}
		s.logical += ms[i].TotalBytes
	}
	s.refs += nrefs
	s.commits.Add(int64(len(ms)))
	s.commitRefs.Add(nrefs)
	return nil
}

// Release drops one reference per hash occurrence, undoing a Commit of
// the same manifests. Blocks whose count returns to zero revert to the
// staged state (data retained). Releasing below zero is an error and
// leaves the store unchanged.
func (s *Store) Release(ms ...Manifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range ms {
		for _, h := range ms[i].Hashes {
			e, ok := s.blocks[h]
			if !ok || e.refs <= 0 {
				return fmt.Errorf("blockstore: release of unreferenced block %s", h.Short())
			}
		}
	}
	// A hash repeated within the released manifests needs one reference
	// per occurrence; the check above only guards the first, so re-check
	// while decrementing and roll back on underflow.
	type taken struct{ h Hash }
	var done []taken
	for i := range ms {
		for _, h := range ms[i].Hashes {
			e := s.blocks[h]
			if e.refs <= 0 {
				for _, d := range done {
					s.blocks[d.h].refs++
				}
				return fmt.Errorf("blockstore: release of unreferenced block %s", h.Short())
			}
			e.refs--
			done = append(done, taken{h})
		}
		s.logical -= ms[i].TotalBytes
	}
	s.refs -= int64(len(done))
	return nil
}

// Len returns the number of distinct stored blocks.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

// RefCounts returns every block's reference count keyed by hash — the
// crash-recovery tests compare a recovered store against a crash-free
// run with one map equality check.
func (s *Store) RefCounts() map[Hash]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Hash]int64, len(s.blocks))
	for h, e := range s.blocks {
		out[h] = e.refs
	}
	return out
}

// Stats returns the store's size and reference counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Blocks: len(s.blocks), Bytes: s.bytes, Refs: s.refs, LogicalBytes: s.logical}
}

// ForEachSorted visits every block in ascending hash order — the
// deterministic iteration snapshot serialization depends on. The
// callback must not retain data beyond the call.
func (s *Store) ForEachSorted(fn func(h Hash, refs int64, data []byte)) {
	s.mu.Lock()
	hashes := make([]Hash, 0, len(s.blocks))
	for h := range s.blocks {
		hashes = append(hashes, h)
	}
	s.mu.Unlock()
	sort.Slice(hashes, func(i, j int) bool {
		return string(hashes[i][:]) < string(hashes[j][:])
	})
	for _, h := range hashes {
		s.mu.Lock()
		e, ok := s.blocks[h]
		if !ok {
			s.mu.Unlock()
			continue
		}
		refs, data := e.refs, e.data
		s.mu.Unlock()
		fn(h, refs, data)
	}
}

// Restore inserts a block with an explicit refcount — the snapshot load
// path. The data is verified against the hash so a corrupt snapshot is
// detected here rather than surfacing as silent payload corruption.
func (s *Store) Restore(h Hash, refs int64, data []byte) error {
	if len(data) == 0 || len(data) > MaxBlockSize {
		return fmt.Errorf("blockstore: bad restored block length %d", len(data))
	}
	if refs < 0 {
		return fmt.Errorf("blockstore: negative refcount %d for block %s", refs, h.Short())
	}
	if HashBlock(data) != h {
		return fmt.Errorf("%w: %s", ErrHashMismatch, h.Short())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blocks[h]; ok {
		return fmt.Errorf("blockstore: duplicate restored block %s", h.Short())
	}
	s.blocks[h] = &blockEntry{data: append([]byte(nil), data...), refs: refs}
	s.bytes += int64(len(data))
	s.refs += refs
	s.logical += refs * int64(len(data))
	return nil
}

// SynthPayload expands a seed into n bytes of deterministic
// pseudo-content (xorshift64*). The prototype's transport ships
// payloads of the real compressed size but fabricated content; deriving
// that content from a stable seed makes it identical across the legacy
// and block paths, across retries, and across clients holding the same
// image — which is what lets the block layer deduplicate it.
func SynthPayload(seed uint64, n int) []byte {
	if n <= 0 {
		return nil
	}
	out := make([]byte, n)
	// splitmix64 scramble seeds the xorshift state: distinct seeds land in
	// distinct (and nonzero) states even when they differ in one bit.
	x := seed + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(out[i:], x*0x2545f4914f6cdd1d)
	}
	if i < n {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], x*0x2545f4914f6cdd1d)
		copy(out[i:], tail[:n-i])
	}
	return out
}
