package client

import (
	"encoding/binary"
	"hash/fnv"
	"log"
	"math"
	"sync"

	"bees/internal/blockstore"
	"bees/internal/features"
	"bees/internal/server"
	"bees/internal/wire"
)

// RemoteServer adapts a Client to core.ServerAPI so the full BEES
// pipeline (and every baseline) can run against a beesd server over TCP
// exactly as it runs against an in-process server. The client retries
// transient failures internally; only a request whose retry budget is
// exhausted reaches this layer, and in a disaster scenario that is
// survivable, so it degrades rather than aborts: failed queries report
// similarity 0 (image treated as unique) and failed uploads count their
// items as degraded. Err exposes the last failure and TakeDegraded the
// degraded set and item count, which core.BatchAccounting folds into
// BatchReport.Degraded.
//
// Every upload reaches the server through one path, upload: the delta
// flow.
type RemoteServer struct {
	c *Client

	mu       sync.Mutex
	lastErr  error
	degraded int
}

// NewRemoteServer wraps a connected client.
func NewRemoteServer(c *Client) *RemoteServer { return &RemoteServer{c: c} }

// QueryMaxBatch implements core.ServerAPI over the wire: the whole
// batch's CBRD query costs one round trip. A request whose retry budget
// is exhausted degrades every set it carried — each image reports
// similarity 0 and is treated as unique.
func (r *RemoteServer) QueryMaxBatch(sets []*features.BinarySet) []float64 {
	sims, err := r.c.QueryMax(sets)
	if err != nil {
		r.degradeN(err, len(sets))
		log.Printf("beesctl: batch query failed, treating %d images as unique: %v", len(sets), err)
		return make([]float64, len(sets))
	}
	return sims
}

// UploadBatch uploads items under a fresh nonce and drops their IDs: one
// UploadItems call. No binary calls it; it stays while the benchmark's
// device adapter (bench/stack.go) does.
func (r *RemoteServer) UploadBatch(items []server.UploadItem) error {
	_, err := r.UploadItems(r.NewUploadNonce(), items)
	return err
}

// NewUploadNonce implements core.ServerAPI: the pipeline stamps each
// upload chunk with a nonce before the first attempt so a later outbox
// replay of the same chunk dedups against it.
func (r *RemoteServer) NewUploadNonce() uint64 { return r.c.NewNonce() }

// UploadItems implements core.ServerAPI: one upload chunk under the
// caller's nonce, through upload. The nonce makes replays idempotent, so
// an outbox replay of a chunk that half-landed resumes from the blocks
// the server acked instead of resending the image. Failures degrade the
// whole chunk (commits are atomic).
func (r *RemoteServer) UploadItems(nonce uint64, items []server.UploadItem) ([]int64, error) {
	ids, err := r.upload(nonce, items)
	if err != nil {
		r.degradeN(err, len(items))
		log.Printf("beesctl: upload of %d items failed: %v", len(items), err)
		return nil, err
	}
	return ids, nil
}

// upload is the one way a device's images reach a server, as a delta
// upload: manifest every blob, ask the server which blocks it already
// holds, put the missing ones in frames bounded by Options.BlockPutBytes,
// then commit the manifests under the chunk's nonce.
func (r *RemoteServer) upload(nonce uint64, items []server.UploadItem) ([]int64, error) {
	manifests, distinct := Manifests(items, r.c.opts.BlockSize)
	if len(distinct) > 0 {
		hashes := make([]blockstore.Hash, len(distinct))
		for i := range distinct {
			hashes[i] = distinct[i].Hash
		}
		have, err := r.c.queryBlocks(hashes)
		if err != nil {
			return nil, err
		}
		var put []wire.Block
		putBytes := 0
		flush := func() error {
			if len(put) == 0 {
				return nil
			}
			if err := r.c.putBlocks(put); err != nil {
				return err
			}
			r.c.blocksSent.Add(int64(len(put)))
			r.c.blocksSentBytes.Add(int64(putBytes))
			put, putBytes = put[:0], 0
			return nil
		}
		for i, b := range distinct {
			if have[i] {
				r.c.blocksSkipped.Inc()
				r.c.blocksSkippedBytes.Add(int64(len(b.Data)))
				continue
			}
			if len(put) > 0 && putBytes+len(b.Data) > r.c.opts.BlockPutBytes {
				if err := flush(); err != nil {
					return nil, err
				}
			}
			put = append(put, b)
			putBytes += len(b.Data)
		}
		if err := flush(); err != nil {
			return nil, err
		}
	}
	return r.c.commitManifests(nonce, manifests)
}

// WireItems converts server upload items to their wire form, the source
// Manifests splits into blocks (the benchmark also encodes them as the
// retired whole-image frame). Each item's blob is a payload of exactly
// Meta.Bytes bytes so the transport carries the real (compressed) image
// size. The bytes are synthesized
// deterministically from the item's identity (ItemKey), which is what
// makes delta upload testable end to end: the same image produces the
// same blob — and therefore the same block hashes — on every client,
// every outbox replay and every cluster router, while distinct images
// produce distinct payloads that cannot cross-dedup.
func WireItems(items []server.UploadItem) []wire.UploadBatchItem {
	out := make([]wire.UploadBatchItem, len(items))
	for i := range items {
		it := &items[i]
		set := it.Set
		if set == nil {
			set = &features.BinarySet{}
		}
		out[i] = wire.UploadBatchItem{
			Set:     set,
			GroupID: it.Meta.GroupID,
			Lat:     it.Meta.Lat,
			Lon:     it.Meta.Lon,
			Gain:    it.Meta.Gain,
			Blob:    blockstore.SynthPayload(ItemKey(it), it.Meta.Bytes),
		}
	}
	return out
}

// Manifests is the device → wire conversion of a delta upload, shared
// by RemoteServer and the cluster router: each item's blob (see
// WireItems) split into blockSize blocks and described by a manifest,
// plus the items' distinct blocks in first-appearance order — two
// identical images in one chunk cost one payload. blockSize 0 selects
// blockstore.DefaultBlockSize.
func Manifests(items []server.UploadItem, blockSize int) ([]wire.ManifestItem, []wire.Block) {
	manifests := make([]wire.ManifestItem, len(items))
	var distinct []wire.Block
	seen := make(map[blockstore.Hash]bool)
	for i, it := range WireItems(items) {
		m := blockstore.ManifestOf(it.Blob, blockSize)
		manifests[i] = wire.ManifestItem{
			Set:        it.Set,
			GroupID:    it.GroupID,
			Lat:        it.Lat,
			Lon:        it.Lon,
			Gain:       it.Gain,
			TotalBytes: m.TotalBytes,
			BlockSize:  uint32(m.BlockSize),
			Hashes:     m.Hashes,
		}
		parts := blockstore.Split(it.Blob, m.BlockSize)
		for j, h := range m.Hashes {
			if !seen[h] {
				seen[h] = true
				distinct = append(distinct, wire.Block{Hash: h, Data: parts[j]})
			}
		}
	}
	return manifests, distinct
}

// ItemKey folds an item's identity — feature descriptors plus the
// metadata that defines "the same image" — into a stable 64-bit key: the
// blob synthesis seed, and the key the cluster router shards on, so an
// item lands on the same shard no matter which router (or replay) routes
// it. Gain is deliberately excluded: it is a per-run ranking artifact,
// not part of the image.
func ItemKey(it *server.UploadItem) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w(uint64(it.Meta.GroupID))
	w(math.Float64bits(it.Meta.Lat))
	w(math.Float64bits(it.Meta.Lon))
	w(uint64(it.Meta.Bytes))
	if it.Set != nil {
		for _, d := range it.Set.Descriptors {
			for _, word := range d {
				w(word)
			}
		}
	}
	return h.Sum64()
}

func (r *RemoteServer) degradeN(err error, n int) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	r.lastErr = err
	r.degraded += n
	r.mu.Unlock()
}

// Err returns the last transport error, if any.
func (r *RemoteServer) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// TakeDegraded returns the number of query sets and upload items that
// degraded (their request exhausted its retries) since the last call,
// and resets the counter — one call per batch gives per-batch counts.
func (r *RemoteServer) TakeDegraded() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.degraded
	r.degraded = 0
	return d
}
