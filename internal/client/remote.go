package client

import (
	"encoding/binary"
	"hash/fnv"
	"log"
	"math"
	"sync"

	"bees/internal/blockstore"
	"bees/internal/features"
	"bees/internal/index"
	"bees/internal/server"
	"bees/internal/wire"
)

// RemoteServer adapts a Client to core.ServerAPI so the full BEES
// pipeline (and every baseline) can run against a beesd server over TCP
// exactly as it runs against an in-process server. The client retries
// transient failures internally; only a request whose retry budget is
// exhausted reaches this layer, and in a disaster scenario that is
// survivable, so it degrades rather than aborts: failed queries report
// similarity 0 (image treated as unique) and failed uploads return -1.
// Err exposes the last failure and TakeDegraded the degradation count,
// which core.BatchAccounting folds into BatchReport.Degraded.
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

// UploadBatch implements core.ServerAPI over the wire. Each item's blob
// is a payload of exactly Meta.Bytes bytes so the transport carries the
// real (compressed) image size. On failure only the items of the frames
// that never completed count as degraded.
func (r *RemoteServer) UploadBatch(items []server.UploadItem) error {
	ids, err := r.c.UploadBatch(wireItems(items))
	if err != nil {
		r.degradeN(err, len(items)-len(ids))
		log.Printf("beesctl: batch upload failed after %d of %d items: %v", len(ids), len(items), err)
		return err
	}
	return nil
}

// wireItems converts server upload items to their wire form; each item's
// blob is a payload of exactly Meta.Bytes bytes so the transport carries
// the real (compressed) image size. The bytes are synthesized
// deterministically from the item's identity (descriptors + metadata),
// which is what makes delta upload testable end to end: the same image
// produces the same blob — and therefore the same block hashes — on
// every client and every outbox replay, while distinct images produce
// distinct payloads that cannot cross-dedup.
func wireItems(items []server.UploadItem) []wire.UploadBatchItem {
	out := make([]wire.UploadBatchItem, len(items))
	for i, it := range items {
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
			Blob:    blockstore.SynthPayload(itemSeed(&it), it.Meta.Bytes),
		}
	}
	return out
}

// itemSeed folds an item's identity — feature descriptors plus the
// metadata that defines "the same image" — into the synthesis seed.
// Gain is deliberately excluded: it is a per-run ranking artifact, not
// part of the image.
func itemSeed(it *server.UploadItem) uint64 {
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

// NewUploadNonce implements core.Uploader: the pipeline stamps each
// upload chunk with a nonce before the first attempt so a later outbox
// replay of the same chunk dedups against it.
func (r *RemoteServer) NewUploadNonce() uint64 { return r.c.NewNonce() }

// UploadItems implements core.Uploader: one upload chunk under the
// caller's nonce. When Hello negotiation says both ends speak block
// transfer, the chunk goes as a delta upload (query → put missing →
// commit); otherwise — old server, negotiation disabled, or the Hello
// itself failed in transit — it falls back to a single whole-image
// batch frame. Either way the nonce makes replays idempotent, so an
// outbox replay of a chunk that half-landed resumes from the blocks the
// server acked instead of resending the image. Failures degrade the
// whole chunk (commits and batch frames are atomic).
func (r *RemoteServer) UploadItems(nonce uint64, items []server.UploadItem) ([]int64, error) {
	wi := wireItems(items)
	blocks, err := r.c.NegotiateBlocks()
	if err != nil {
		log.Printf("beesctl: feature negotiation failed, using whole-image upload: %v", err)
		blocks = false
	}
	var ids []int64
	if blocks {
		ids, err = r.uploadBlocks(nonce, wi)
	} else {
		ids, err = r.c.UploadBatchNonce(nonce, wi)
	}
	if err != nil {
		r.degradeN(err, len(items))
		log.Printf("beesctl: nonce upload of %d items failed: %v", len(items), err)
		return nil, err
	}
	return ids, nil
}

// uploadBlocks runs one chunk through the delta path: manifest every
// blob, ask the server which blocks it already holds (batch-wide dedup
// — two identical images in one chunk cost one payload), upload the
// missing ones in put frames bounded by Options.BlockPutBytes, then
// commit the manifests under the chunk's nonce.
func (r *RemoteServer) uploadBlocks(nonce uint64, items []wire.UploadBatchItem) ([]int64, error) {
	blockSize := r.c.opts.BlockSize
	manifests := make([]wire.ManifestItem, len(items))
	var hashes []blockstore.Hash
	blockData := make(map[blockstore.Hash][]byte)
	for i := range items {
		it := &items[i]
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
		parts := blockstore.Split(it.Blob, blockSize)
		for j, h := range m.Hashes {
			if _, ok := blockData[h]; !ok {
				blockData[h] = parts[j]
				hashes = append(hashes, h)
			}
		}
	}
	if len(hashes) > 0 {
		have, err := r.c.QueryBlocks(hashes)
		if err != nil {
			return nil, err
		}
		var put []wire.Block
		putBytes := 0
		flush := func() error {
			if len(put) == 0 {
				return nil
			}
			if _, _, err := r.c.PutBlocks(put); err != nil {
				return err
			}
			r.c.blocksSent.Add(int64(len(put)))
			r.c.blocksSentBytes.Add(int64(putBytes))
			put, putBytes = put[:0], 0
			return nil
		}
		for i, h := range hashes {
			data := blockData[h]
			if have[i] {
				r.c.blocksSkipped.Inc()
				r.c.blocksSkippedBytes.Add(int64(len(data)))
				continue
			}
			if len(put) > 0 && putBytes+len(data) > r.c.opts.BlockPutBytes {
				if err := flush(); err != nil {
					return nil, err
				}
			}
			put = append(put, wire.Block{Hash: h, Data: data})
			putBytes += len(data)
		}
		if err := flush(); err != nil {
			return nil, err
		}
	}
	return r.c.CommitManifests(nonce, manifests)
}

// QueryMax is the legacy per-image query, kept for per-image callers
// (core.PerImage wraps it for the batched-vs-legacy equivalence tests).
func (r *RemoteServer) QueryMax(set *features.BinarySet) float64 {
	sims, err := r.c.QueryMax([]*features.BinarySet{set})
	if err != nil {
		r.degradeN(err, 1)
		log.Printf("beesctl: query failed, treating image as unique: %v", err)
		return 0
	}
	return sims[0]
}

// Upload is the legacy per-image upload; see QueryMax.
func (r *RemoteServer) Upload(set *features.BinarySet, meta server.UploadMeta) index.ImageID {
	blob := make([]byte, meta.Bytes)
	id, err := r.c.Upload(set, meta.GroupID, meta.Lat, meta.Lon, blob)
	if err != nil {
		r.degradeN(err, 1)
		log.Printf("beesctl: upload failed: %v", err)
		return -1
	}
	return index.ImageID(id)
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

// TakeDegraded returns the number of requests that degraded (exhausted
// their retries) since the last call, and resets the counter — one call
// per batch gives per-batch counts.
func (r *RemoteServer) TakeDegraded() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.degraded
	r.degraded = 0
	return d
}
