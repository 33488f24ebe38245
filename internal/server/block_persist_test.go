package server

import (
	"bytes"
	"testing"

	"bees/internal/blockstore"
	"bees/internal/features"
	"bees/internal/wire"
)

// blockData returns a copy of the bytes st holds for h.
func blockData(st *blockstore.Store, h blockstore.Hash) (data []byte, ok bool) {
	st.ForEachSorted(func(bh blockstore.Hash, _ int64, d []byte) {
		if bh == h {
			data, ok = append([]byte(nil), d...), true
		}
	})
	return data, ok
}

// TestBlockRefcountsSurviveSnapshotAndReplay pins the two ways block
// references could silently leak: a commit replayed inside the nonce
// dedup window must not take a second set of references, and a snapshot
// save/load cycle must reproduce every refcount — including a staged
// (refs=0) block that was uploaded but never committed — exactly.
func TestBlockRefcountsSurviveSnapshotAndReplay(t *testing.T) {
	srv, _, addr := listenTCP(t, TCPConfig{})
	conn := dialRaw(t, addr)

	// Two committed images sharing one blob (refcount 2 per block) plus
	// an orphan block staged and abandoned (refcount 0).
	const blockSize = 1024
	blob := blockstore.SynthPayload(42, 5*blockSize+100)
	m := blockstore.ManifestOf(blob, blockSize)
	parts := blockstore.Split(blob, blockSize)
	orphan := blockstore.SynthPayload(43, 200)
	orphanHash := blockstore.HashBlock(orphan)

	put := &wire.BlockPut{Blocks: []wire.Block{{Hash: orphanHash, Data: orphan}}}
	for i, h := range m.Hashes {
		put.Blocks = append(put.Blocks, wire.Block{Hash: h, Data: parts[i]})
	}
	pr, ok := request(t, conn, put).(*wire.BlockPutResponse)
	if !ok || pr.Stored != uint32(len(put.Blocks)) {
		t.Fatalf("block put: %+v (ok=%v)", pr, ok)
	}

	item := wire.ManifestItem{
		Set:        &features.BinarySet{},
		GroupID:    9,
		Lat:        31.2,
		Lon:        121.4,
		TotalBytes: m.TotalBytes,
		BlockSize:  uint32(m.BlockSize),
		Hashes:     m.Hashes,
	}
	commit := &wire.ManifestCommit{Nonce: 77, Items: []wire.ManifestItem{item, item}}
	cr, ok := request(t, conn, commit).(*wire.ManifestCommitResponse)
	if !ok || len(cr.IDs) != 2 {
		t.Fatalf("manifest commit: %+v (ok=%v)", cr, ok)
	}
	want := srv.Blocks().Stats()
	if want.Refs != 2*int64(len(m.Hashes)) {
		t.Fatalf("two committed manifests hold %d refs, want %d", want.Refs, 2*len(m.Hashes))
	}

	// Replay inside the dedup window: same nonce, same IDs, no new refs.
	cr2, ok := request(t, conn, commit).(*wire.ManifestCommitResponse)
	if !ok || len(cr2.IDs) != 2 || cr2.IDs[0] != cr.IDs[0] || cr2.IDs[1] != cr.IDs[1] {
		t.Fatalf("replayed commit answered %+v, original %+v", cr2, cr)
	}
	if got := srv.Blocks().Stats(); got != want {
		t.Fatalf("replayed commit leaked references: %+v, want %+v", got, want)
	}
	if images := srv.Stats().Images; images != 2 {
		t.Fatalf("server holds %d images after replay, want 2", images)
	}

	// Snapshot → fresh server: identical store, block by block.
	var buf bytes.Buffer
	if err := srv.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	srv2 := NewDefault()
	if err := srv2.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got := srv2.Blocks().Stats(); got != want {
		t.Fatalf("restored block store %+v, want %+v", got, want)
	}
	for i, h := range m.Hashes {
		if refs := srv2.Blocks().RefCount(h); refs != 2 {
			t.Fatalf("restored block %d holds %d refs, want 2", i, refs)
		}
		data, ok := blockData(srv2.Blocks(), h)
		if !ok || !bytes.Equal(data, parts[i]) {
			t.Fatalf("restored block %d data mismatch (ok=%v)", i, ok)
		}
	}
	if refs := srv2.Blocks().RefCount(orphanHash); refs != 0 {
		t.Fatalf("staged orphan block restored with %d refs, want 0", refs)
	}
	if data, ok := blockData(srv2.Blocks(), orphanHash); !ok || !bytes.Equal(data, orphan) {
		t.Fatal("staged orphan block lost its data across the snapshot")
	}
	if got, wantStats := srv2.Stats(), srv.Stats(); got != wantStats {
		t.Fatalf("restored accounting %+v, want %+v", got, wantStats)
	}
}
