package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"bees/internal/blockstore"
	"bees/internal/features"
	"bees/internal/wire"
)

// WAL record encoding: every state-mutating frame the server
// acknowledges is first serialized to one of these records and appended
// to the write-ahead log. The framing layer (internal/wal) owns length
// and checksum; this file owns only the payload, read through
// wire.Reader and written with wire's append helpers like every other
// format:
//
//	byte   type (recBlockPut | recCommit)
//	...    type-specific body
//
// A recBlockPut is one staged block: hash | u32 length | data. Every
// commit — inline or by manifest, server-allocated IDs or router-assigned
// ones — is one recCommit record:
//
//	u64 nonce | u32 count | count × (u64 id | meta | set | manifest)
//	meta:     u64 group | f64 lat | f64 lon | u64 bytes
//	set:      u32 n | n × 32-byte descriptor (the wire's set layout)
//	manifest: u64 total bytes | u64 block size | u32 n | n × hash
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
		b = appendMeta(b, &items[i].Meta)
		b = wire.AppendSet(b, items[i].Set)
		var m blockstore.Manifest
		if manifests != nil {
			m = manifests[i]
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(m.TotalBytes))
		b = binary.LittleEndian.AppendUint64(b, uint64(m.BlockSize))
		b = wire.AppendHashes(b, m.Hashes)
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

// appendMeta and readMeta carry an upload's metadata, the layout the
// WAL and the snapshot's upload history share.
func appendMeta(b []byte, m *UploadMeta) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(m.GroupID))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Lat))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Lon))
	return binary.LittleEndian.AppendUint64(b, uint64(m.Bytes))
}

func readMeta(r *wire.Reader) UploadMeta {
	return UploadMeta{GroupID: int64(r.U64()), Lat: r.F64(), Lon: r.F64(), Bytes: int(r.U64())}
}

// decodeWALRecord parses one record payload into *walBlockPut or
// *walCommit.
func decodeWALRecord(p []byte) (any, error) {
	if len(p) == 0 {
		return nil, errBadWALRecord
	}
	r := wire.NewReader(p[1:])
	var rec any
	switch p[0] {
	case recBlockPut:
		put := &walBlockPut{hash: r.Hash()}
		n := r.U32()
		if n > maxSnapshotBlockBytes {
			return nil, errBadWALRecord
		}
		put.data = append([]byte(nil), r.Bytes(int(n))...)
		rec = put
	case recCommit:
		c, err := readCommit(&r)
		if err != nil {
			return nil, err
		}
		rec = c
	default:
		return nil, fmt.Errorf("%w: unknown type %d", errBadWALRecord, p[0])
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadWALRecord, err)
	}
	return rec, nil
}

// readCommit parses the body of a recCommit record. An empty or
// unreadable count, or a set over maxSnapshotDescriptors, is a bad
// record; the caller's Done reports any other read error.
func readCommit(r *wire.Reader) (*walCommit, error) {
	nonce := r.U64()
	count := r.Count(walItemMinBytes)
	if count == 0 {
		return nil, errBadWALRecord
	}
	rec := &walCommit{
		nonce:     nonce,
		ids:       make([]int64, count),
		items:     make([]UploadItem, count),
		manifests: make([]blockstore.Manifest, count),
	}
	for i := range rec.items {
		rec.ids[i] = int64(r.U64())
		rec.items[i].Meta = readMeta(r)
		// Nil and empty sets both round-trip to nil (the TCP layer
		// already normalizes empty to nil).
		if n := r.Count(len(features.Descriptor{}) * 8); n > maxSnapshotDescriptors {
			return nil, errBadWALRecord
		} else if n > 0 {
			rec.items[i].Set = &features.BinarySet{Descriptors: r.Descriptors(n)}
		}
		rec.manifests[i] = blockstore.Manifest{TotalBytes: int64(r.U64()), BlockSize: int(r.U64()), Hashes: r.Hashes()}
	}
	return rec, nil
}
