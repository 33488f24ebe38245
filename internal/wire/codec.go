package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"bees/internal/blockstore"
	"bees/internal/features"
)

// The one codec. Every byte format BEES writes — the frames of this
// package, the server's WAL records and snapshot stream, the outbox's
// chunk files — is little-endian fixed-width fields, counts and raw byte
// runs. They all read through Reader and write through the append
// helpers below, so each bound is checked in one place.

const (
	hashLen = len(blockstore.Hash{})
	descLen = len(features.Descriptor{}) * 8

	// Smallest encodings of the repeated elements, the units a count is
	// checked against: a set is at least its u32 count; a block is a hash
	// and a u32 length; a manifest item five u64s, a u32 block size, and
	// empty set and hash counts; an upload batch item four u64s and empty
	// set and blob counts; a nonce entry a u64 and an empty ID count.
	minSetBytes             = 4
	minBlockBytes           = hashLen + 4
	minManifestItemBytes    = 8*5 + 4 + 4 + 4
	minUploadBatchItemBytes = 8*4 + 4 + 4
	minNonceEntryBytes      = 8 + 4
	shardStatBytes          = 4 + 8 + 8 + 8
	shardCandidateBytes     = 8 + 4 + 8
)

var (
	errTruncated = errors.New("truncated")
	errCount     = errors.New("count exceeds the remaining bytes")
	errTrailing  = errors.New("trailing bytes")
	errBitmap    = errors.New("nonzero bits past the bitmap's end")
)

var le = binary.LittleEndian

// Reader is a bounds-checked little-endian cursor over a byte slice.
// Its first error sticks: every later read returns zero values and reads
// nothing, so a decoder reads a whole layout and checks once, at Done.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Bytes consumes the next n bytes and returns them aliased, capacity
// capped at n so an append cannot clobber what follows.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > len(r.buf) {
		r.fail(errTruncated)
	}
	if r.err != nil {
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return le.Uint32(b)
	}
	return 0
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

// F64 reads a float64 as its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Hash reads a block hash.
func (r *Reader) Hash() (h blockstore.Hash) {
	copy(h[:], r.Bytes(hashLen))
	return h
}

// Count reads a u32 element count and rejects one the remaining bytes
// cannot hold at unit bytes per element, so a hostile count never sizes
// an allocation beyond what the payload carries. It returns 0 on error.
func (r *Reader) Count(unit int) int {
	n := r.U32()
	if r.err == nil && uint64(n) > uint64(len(r.buf)/unit) {
		r.err = errCount
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Err returns the first error.
func (r *Reader) Err() error { return r.err }

// Done returns the first error, or an error if bytes remain unread.
func (r *Reader) Done() error {
	if len(r.buf) != 0 {
		r.fail(errTrailing)
	}
	return r.err
}

// rest consumes and returns every remaining byte.
func (r *Reader) rest() []byte { return r.Bytes(len(r.buf)) }

// Descriptors reads n raw descriptors from one bounds-checked slice.
func (r *Reader) Descriptors(n int) []features.Descriptor {
	if n < 0 || n > len(r.buf)/descLen {
		r.fail(errTruncated)
	}
	b := r.Bytes(n * descLen)
	if r.err != nil {
		return nil
	}
	ds := make([]features.Descriptor, n)
	for i := range ds {
		p := b[i*descLen : (i+1)*descLen]
		ds[i] = features.Descriptor{le.Uint64(p), le.Uint64(p[8:]), le.Uint64(p[16:]), le.Uint64(p[24:])}
	}
	return ds
}

// AppendDescriptors appends the raw descriptors, no count.
func AppendDescriptors(b []byte, ds []features.Descriptor) []byte {
	for _, d := range ds {
		for _, w := range d {
			b = le.AppendUint64(b, w)
		}
	}
	return b
}

// AppendSet appends a set as a u32 descriptor count and the raw
// descriptors; a nil set encodes as an empty one.
func AppendSet(b []byte, set *features.BinarySet) []byte {
	var ds []features.Descriptor
	if set != nil {
		ds = set.Descriptors
	}
	return AppendDescriptors(le.AppendUint32(b, uint32(len(ds))), ds)
}

func (r *Reader) set() *features.BinarySet {
	return &features.BinarySet{Descriptors: r.Descriptors(r.Count(descLen))}
}

// appendSets and sets carry a u32-counted list of sets.
func appendSets(b []byte, sets []*features.BinarySet) []byte {
	b = le.AppendUint32(b, uint32(len(sets)))
	for _, s := range sets {
		b = AppendSet(b, s)
	}
	return b
}

func (r *Reader) sets() []*features.BinarySet {
	sets := make([]*features.BinarySet, r.Count(minSetBytes))
	for i := 0; i < len(sets) && r.err == nil; i++ {
		sets[i] = r.set()
	}
	return sets
}

// AppendHashes appends a u32 hash count and the raw hashes.
func AppendHashes(b []byte, hs []blockstore.Hash) []byte {
	b = le.AppendUint32(b, uint32(len(hs)))
	for i := range hs {
		b = append(b, hs[i][:]...)
	}
	return b
}

// Hashes reads a u32-counted list of hashes.
func (r *Reader) Hashes() []blockstore.Hash {
	n := r.Count(hashLen)
	b := r.Bytes(n * hashLen)
	hs := make([]blockstore.Hash, n)
	for i := range hs {
		copy(hs[i][:], b[i*hashLen:])
	}
	return hs
}

// appendIDs and ids carry a u32-counted list of image IDs.
func appendIDs(b []byte, ids []int64) []byte {
	b = le.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = le.AppendUint64(b, uint64(id))
	}
	return b
}

func (r *Reader) ids() []int64 {
	n := r.Count(8)
	b := r.Bytes(8 * n)
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(le.Uint64(b[8*i:]))
	}
	return ids
}

// appendBitmap and bitmap carry a u32 bit count and the bits packed
// LSB first.
func appendBitmap(b []byte, bits []bool) []byte {
	b = le.AppendUint32(b, uint32(len(bits)))
	packed := make([]byte, (len(bits)+7)/8)
	for i, ok := range bits {
		if ok {
			packed[i/8] |= 1 << (i % 8)
		}
	}
	return append(b, packed...)
}

func (r *Reader) bitmap() []bool {
	n := int(r.U32())
	b := r.Bytes((n + 7) / 8)
	// Bits past n must be zero so every bitmap has exactly one encoding
	// (the golden and round-trip gates rely on canonical bytes).
	if n%8 != 0 && len(b) > 0 && b[len(b)-1]>>(n%8) != 0 {
		r.fail(errBitmap)
	}
	if r.err != nil {
		return nil
	}
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = b[i/8]&(1<<(i%8)) != 0
	}
	return bits
}

// appendBlocks and blocks carry a u32-counted list of (hash, u32 length,
// data) blocks. Decoded data aliases the payload. appendBlocks grows b
// once to the list's encoded size, so a BlockPut frame is one allocation.
func appendBlocks(b []byte, blocks []Block) []byte {
	n := 4
	for i := range blocks {
		n += minBlockBytes + len(blocks[i].Data)
	}
	b = le.AppendUint32(slices.Grow(b, n), uint32(len(blocks)))
	for i := range blocks {
		b = append(b, blocks[i].Hash[:]...)
		b = le.AppendUint32(b, uint32(len(blocks[i].Data)))
		b = append(b, blocks[i].Data...)
	}
	return b
}

func (r *Reader) blocks() []Block {
	blocks := make([]Block, r.Count(minBlockBytes))
	for i := 0; i < len(blocks) && r.err == nil; i++ {
		blocks[i] = Block{Hash: r.Hash(), Data: r.Bytes(int(r.U32()))}
	}
	return blocks
}

// appendManifestItems and manifestItems carry the u32-counted item list
// of ManifestCommit and ShardRoute.
func appendManifestItems(b []byte, items []ManifestItem) []byte {
	b = le.AppendUint32(b, uint32(len(items)))
	for i := range items {
		it := &items[i]
		b = le.AppendUint64(b, uint64(it.GroupID))
		b = le.AppendUint64(b, math.Float64bits(it.Lat))
		b = le.AppendUint64(b, math.Float64bits(it.Lon))
		b = le.AppendUint64(b, math.Float64bits(it.Gain))
		b = le.AppendUint64(b, uint64(it.TotalBytes))
		b = le.AppendUint32(b, it.BlockSize)
		b = AppendSet(b, it.Set)
		b = AppendHashes(b, it.Hashes)
	}
	return b
}

func (r *Reader) manifestItems() []ManifestItem {
	items := make([]ManifestItem, r.Count(minManifestItemBytes))
	for i := 0; i < len(items) && r.err == nil; i++ {
		items[i] = ManifestItem{
			GroupID: int64(r.U64()), Lat: r.F64(), Lon: r.F64(), Gain: r.F64(),
			TotalBytes: int64(r.U64()), BlockSize: r.U32(), Set: r.set(), Hashes: r.Hashes(),
		}
	}
	return items
}
