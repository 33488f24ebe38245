package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"bees/internal/blockstore"
	"bees/internal/features"
)

// WAL record encoding: every state-mutating frame the server
// acknowledges is first serialized to one of these records and appended
// to the write-ahead log. The framing layer (internal/wal) owns length
// and checksum; this file owns only the payload:
//
//	byte   type (recBlockPut | recCommit)
//	...    type-specific body, little-endian like the snapshot format
//
// Every commit — inline or by manifest, server-allocated IDs or
// router-assigned ones — is one recCommit record:
//
//	u64 nonce | u32 count | count × (u64 id | meta | set | manifest)
//
// An item that arrived inline carries a zero manifest (BlockSize 0,
// which Manifest.Validate never accepts), so replay pins only the
// non-zero ones. The record holds the nonce and the assigned IDs, so
// replay both reinstalls the state and reseeds the retry-dedup window —
// a client retrying a nonce the WAL already holds gets the original IDs
// back, never a second apply.
//
// Any other kind byte decodes as a bad record.
//
// Gain and global descriptors are not persisted, matching the snapshot
// format: they only steer admission and metadata queries of the live
// process.

const (
	recBlockPut = 2
	recCommit   = 4
)

// walItemMinBytes is the smallest encoded commit item (meta plus an
// empty set's count), the divisor that bounds a decoded item count.
const walItemMinBytes = 4*8 + 4

// errBadWALRecord reports a record that decodes to nonsense. Replay
// counts and skips these (the framing checksum already passed, so this
// is a version skew or encoder bug, not disk corruption — losing one
// record beats refusing to start).
var errBadWALRecord = errors.New("server: bad wal record")

// walBlockPut is a decoded recBlockPut: one staged block.
type walBlockPut struct {
	hash blockstore.Hash
	data []byte
}

// walCommit is a decoded recCommit: one acknowledged commit under its
// assigned IDs, with one manifest per item (zero for an inline item).
type walCommit struct {
	nonce     uint64
	ids       []int64
	items     []UploadItem
	manifests []blockstore.Manifest
}

// encodeCommitRecord serializes one commit; nil manifests writes a zero
// manifest per item.
func encodeCommitRecord(nonce uint64, ids []int64, items []UploadItem, manifests []blockstore.Manifest) []byte {
	b := make([]byte, 0, 64+136*len(items))
	b = append(b, recCommit)
	b = binary.LittleEndian.AppendUint64(b, nonce)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(items)))
	for i := range items {
		b = binary.LittleEndian.AppendUint64(b, uint64(ids[i]))
		b = appendWALMeta(b, &items[i].Meta)
		b = appendWALSet(b, items[i].Set)
		var m blockstore.Manifest
		if manifests != nil {
			m = manifests[i]
		}
		b = appendWALManifest(b, &m)
	}
	return b
}

func encodeBlockPutRecord(h blockstore.Hash, data []byte) []byte {
	b := make([]byte, 0, 1+len(h)+4+len(data))
	b = append(b, recBlockPut)
	b = append(b, h[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(data)))
	return append(b, data...)
}

func appendWALMeta(b []byte, m *UploadMeta) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(m.GroupID))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Lat))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Lon))
	return binary.LittleEndian.AppendUint64(b, uint64(m.Bytes))
}

// appendWALSet serializes a feature set as a descriptor count plus raw
// words; nil and empty sets both round-trip to nil (the TCP layer
// already normalizes empty to nil).
func appendWALSet(b []byte, set *features.BinarySet) []byte {
	if set == nil {
		return binary.LittleEndian.AppendUint32(b, 0)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(set.Descriptors)))
	for _, d := range set.Descriptors {
		for _, w := range d {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	return b
}

func appendWALManifest(b []byte, m *blockstore.Manifest) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(m.TotalBytes))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.BlockSize))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Hashes)))
	for _, h := range m.Hashes {
		b = append(b, h[:]...)
	}
	return b
}

// walDecoder is a bounds-checked cursor over a record payload.
type walDecoder struct {
	buf []byte
	pos int
}

func (d *walDecoder) u32() (uint32, error) {
	if d.pos+4 > len(d.buf) {
		return 0, errBadWALRecord
	}
	v := binary.LittleEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *walDecoder) u64() (uint64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, errBadWALRecord
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v, nil
}

func (d *walDecoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.pos+n > len(d.buf) {
		return nil, errBadWALRecord
	}
	v := d.buf[d.pos : d.pos+n]
	d.pos += n
	return v, nil
}

// count reads an element count and rejects one the rest of the payload
// cannot hold at unit bytes per element, so a hostile count never sizes
// an allocation beyond what the record itself carries.
func (d *walDecoder) count(unit int) (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if uint64(n) > uint64((len(d.buf)-d.pos)/unit) {
		return 0, errBadWALRecord
	}
	return int(n), nil
}

func (d *walDecoder) meta() (UploadMeta, error) {
	var m UploadMeta
	group, err := d.u64()
	if err != nil {
		return m, err
	}
	latBits, err := d.u64()
	if err != nil {
		return m, err
	}
	lonBits, err := d.u64()
	if err != nil {
		return m, err
	}
	bytes, err := d.u64()
	if err != nil {
		return m, err
	}
	m.GroupID = int64(group)
	m.Lat = math.Float64frombits(latBits)
	m.Lon = math.Float64frombits(lonBits)
	m.Bytes = int(bytes)
	return m, nil
}

func (d *walDecoder) set() (*features.BinarySet, error) {
	n, err := d.count(len(features.Descriptor{}) * 8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > maxSnapshotDescriptors {
		return nil, errBadWALRecord
	}
	set := &features.BinarySet{Descriptors: make([]features.Descriptor, n)}
	for j := range set.Descriptors {
		for w := range set.Descriptors[j] {
			if set.Descriptors[j][w], err = d.u64(); err != nil {
				return nil, err
			}
		}
	}
	return set, nil
}

func (d *walDecoder) manifest() (blockstore.Manifest, error) {
	var m blockstore.Manifest
	total, err := d.u64()
	if err != nil {
		return m, err
	}
	blockSize, err := d.u64()
	if err != nil {
		return m, err
	}
	n, err := d.count(len(blockstore.Hash{}))
	if err != nil {
		return m, err
	}
	m.TotalBytes = int64(total)
	m.BlockSize = int(blockSize)
	m.Hashes = make([]blockstore.Hash, n)
	for j := range m.Hashes {
		hb, err := d.bytes(len(blockstore.Hash{}))
		if err != nil {
			return m, err
		}
		copy(m.Hashes[j][:], hb)
	}
	return m, nil
}

// commit parses the body of a recCommit record.
func (d *walDecoder) commit() (*walCommit, error) {
	nonce, err := d.u64()
	if err != nil {
		return nil, err
	}
	count, err := d.count(walItemMinBytes)
	if err != nil || count == 0 {
		return nil, errBadWALRecord
	}
	rec := &walCommit{
		nonce:     nonce,
		ids:       make([]int64, count),
		items:     make([]UploadItem, count),
		manifests: make([]blockstore.Manifest, count),
	}
	for i := range rec.items {
		id, err := d.u64()
		if err != nil {
			return nil, err
		}
		rec.ids[i] = int64(id)
		if rec.items[i].Meta, err = d.meta(); err != nil {
			return nil, err
		}
		if rec.items[i].Set, err = d.set(); err != nil {
			return nil, err
		}
		if rec.manifests[i], err = d.manifest(); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// decodeWALRecord parses one record payload into *walBlockPut or
// *walCommit.
func decodeWALRecord(p []byte) (any, error) {
	if len(p) == 0 {
		return nil, errBadWALRecord
	}
	d := &walDecoder{buf: p, pos: 1}
	switch p[0] {
	case recBlockPut:
		h, err := d.bytes(len(blockstore.Hash{}))
		if err != nil {
			return nil, err
		}
		n, err := d.u32()
		if err != nil || n > maxSnapshotBlockBytes {
			return nil, errBadWALRecord
		}
		data, err := d.bytes(int(n))
		if err != nil {
			return nil, err
		}
		rec := &walBlockPut{data: append([]byte(nil), data...)}
		copy(rec.hash[:], h)
		return rec, trailing(d)
	case recCommit:
		rec, err := d.commit()
		if err != nil {
			return nil, err
		}
		return rec, trailing(d)
	default:
		return nil, fmt.Errorf("%w: unknown type %d", errBadWALRecord, p[0])
	}
}

// trailing rejects records with bytes past the parsed body.
func trailing(d *walDecoder) error {
	if d.pos != len(d.buf) {
		return errBadWALRecord
	}
	return nil
}
