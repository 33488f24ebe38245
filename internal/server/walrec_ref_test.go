package server

// The WAL record decoder as it was before it moved onto wire.Reader,
// kept as the oracle FuzzWALRecordMatchesRef checks decodeWALRecord
// against.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"bees/internal/blockstore"
	"bees/internal/features"
)

// walCursorRef is a bounds-checked cursor over a record payload.
type walCursorRef struct {
	buf []byte
	pos int
}

func (d *walCursorRef) u32() (uint32, error) {
	if d.pos+4 > len(d.buf) {
		return 0, errBadWALRecord
	}
	v := binary.LittleEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *walCursorRef) u64() (uint64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, errBadWALRecord
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v, nil
}

func (d *walCursorRef) bytes(n int) ([]byte, error) {
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
func (d *walCursorRef) count(unit int) (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if uint64(n) > uint64((len(d.buf)-d.pos)/unit) {
		return 0, errBadWALRecord
	}
	return int(n), nil
}

func (d *walCursorRef) meta() (UploadMeta, error) {
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

func (d *walCursorRef) set() (*features.BinarySet, error) {
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

func (d *walCursorRef) manifest() (blockstore.Manifest, error) {
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
func (d *walCursorRef) commit() (*walCommit, error) {
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

// decodeWALRecordRef parses one record payload into *walBlockPut or
// *walCommit.
func decodeWALRecordRef(p []byte) (any, error) {
	if len(p) == 0 {
		return nil, errBadWALRecord
	}
	d := &walCursorRef{buf: p, pos: 1}
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
		return rec, trailingRef(d)
	case recCommit:
		rec, err := d.commit()
		if err != nil {
			return nil, err
		}
		return rec, trailingRef(d)
	default:
		return nil, fmt.Errorf("%w: unknown type %d", errBadWALRecord, p[0])
	}
}

// trailingRef rejects records with bytes past the parsed body.
func trailingRef(d *walCursorRef) error {
	if d.pos != len(d.buf) {
		return errBadWALRecord
	}
	return nil
}

// walRecordBytes re-encodes a decoded record, so two decodings compare
// by their bytes (NaN coordinates included).
func walRecordBytes(t *testing.T, rec any) []byte {
	switch r := rec.(type) {
	case *walBlockPut:
		return encodeBlockPutRecord(r.hash, r.data)
	case *walCommit:
		return encodeCommitRecord(r.nonce, r.ids, r.items, r.manifests)
	}
	t.Fatalf("decoded %T", rec)
	return nil
}

// FuzzWALRecordMatchesRef checks decodeWALRecord against
// decodeWALRecordRef, the hand-written decoder it replaced: both must
// accept and reject the same payloads, and accepted records must
// re-encode to the same bytes. Seeded with the WAL corpus.
func FuzzWALRecordMatchesRef(f *testing.F) {
	for _, p := range walCorpus() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		got, err := decodeWALRecord(p)
		want, refErr := decodeWALRecordRef(p)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decodeWALRecord err = %v, oracle err = %v", err, refErr)
		}
		if err != nil {
			return
		}
		if g, w := walRecordBytes(t, got), walRecordBytes(t, want); !bytes.Equal(g, w) {
			t.Fatalf("decoded records differ\n got %x\nwant %x", g, w)
		}
	})
}
