package client

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"bees/internal/blockstore"
	"bees/internal/diskfault"
	"bees/internal/features"
	"bees/internal/server"
	"bees/internal/wal"
	"bees/internal/wire"
)

// chaosBlockSize keeps the delta-upload path multi-block with tiny blobs
// so a crash can land between individual block stagings.
const chaosBlockSize = 4096

// chaosScript is the deterministic client workload the crash sweep runs:
// two upload chunks, a three-block delta upload, a mid-script
// checkpoint, a second delta upload sharing two of the first one's
// blocks (refcount exercise), and a final chunk. Each chunk goes through
// RemoteServer.UploadItems; each delta upload is the same retryable step
// — query, put what is missing, commit — spelled out frame by frame.
// Fixed nonces make the crash-free and kill-anywhere runs comparable
// frame by frame.
type chaosScript struct {
	sets    []*features.BinarySet
	sizes   []int
	blobA   []byte
	blobB   []byte
	manA    blockstore.Manifest
	manB    blockstore.Manifest
	blocksA [][]byte
	blocksB [][]byte
}

func newChaosScript() *chaosScript {
	rng := rand.New(rand.NewSource(7701))
	sc := &chaosScript{}
	for i := 0; i < 9; i++ {
		set := &features.BinarySet{Descriptors: make([]features.Descriptor, 3+rng.Intn(4))}
		for j := range set.Descriptors {
			for w := 0; w < 4; w++ {
				set.Descriptors[j][w] = rng.Uint64()
			}
		}
		sc.sets = append(sc.sets, set)
		sc.sizes = append(sc.sizes, 600+rng.Intn(800))
	}
	sc.blobA = make([]byte, 2*chaosBlockSize+1800) // three blocks
	rng.Read(sc.blobA)
	// blobB shares blobA's first two blocks and adds one new tail block.
	tail := make([]byte, 1500)
	rng.Read(tail)
	sc.blobB = append(append([]byte(nil), sc.blobA[:2*chaosBlockSize]...), tail...)
	sc.manA = blockstore.ManifestOf(sc.blobA, chaosBlockSize)
	sc.manB = blockstore.ManifestOf(sc.blobB, chaosBlockSize)
	sc.blocksA = blockstore.Split(sc.blobA, chaosBlockSize)
	sc.blocksB = blockstore.Split(sc.blobB, chaosBlockSize)
	return sc
}

func (sc *chaosScript) batchItems(lo, hi int) []server.UploadItem {
	items := make([]server.UploadItem, 0, hi-lo)
	for i := lo; i < hi; i++ {
		items = append(items, server.UploadItem{Set: sc.sets[i], Meta: server.UploadMeta{
			GroupID: int64(i),
			Lat:     float64(i),
			Lon:     -float64(i),
			Bytes:   sc.sizes[i],
		}})
	}
	return items
}

// uploadChunk uploads images lo..hi-1 as one chunk under nonce.
func (sc *chaosScript) uploadChunk(c *Client, nonce uint64, lo, hi int) ([]int64, error) {
	return NewRemoteServer(c).UploadItems(nonce, sc.batchItems(lo, hi))
}

func (sc *chaosScript) manifestItem(idx int, m blockstore.Manifest) wire.ManifestItem {
	return wire.ManifestItem{
		Set:        sc.sets[idx],
		GroupID:    int64(idx),
		Lat:        float64(idx),
		Lon:        -float64(idx),
		TotalBytes: m.TotalBytes,
		BlockSize:  uint32(m.BlockSize),
		Hashes:     m.Hashes,
	}
}

// putMissing is the client half of the delta protocol: query, then put
// only what the server lacks, returning the hashes the server acked as
// staged. Both frames are idempotent, so a retry after a crash can never
// double-store.
func putMissing(c *Client, hashes []blockstore.Hash, blocks [][]byte) ([]blockstore.Hash, error) {
	have, err := c.queryBlocks(hashes)
	if err != nil {
		return nil, err
	}
	var put []wire.Block
	for i := range hashes {
		if !have[i] {
			put = append(put, wire.Block{Hash: hashes[i], Data: blocks[i]})
		}
	}
	if len(put) == 0 {
		return nil, nil
	}
	if err := c.putBlocks(put); err != nil {
		return nil, err
	}
	staged := make([]blockstore.Hash, len(put))
	for i := range put {
		staged[i] = put[i].Hash
	}
	return staged, nil
}

// chaosStep is one retryable unit of the script. images/bytes are what
// the step adds to server accounting once acknowledged — the sweep
// asserts a recovered server holds exactly the acked prefix.
type chaosStep struct {
	name   string
	nonce  uint64
	images int
	bytes  int64
	run    func(c *Client, srv *server.Server, got map[string][]int64) error
}

// chaosSteps builds the script. onStaged hears the hashes a delta
// step's BlockPut acked before the step goes on to commit them.
func chaosSteps(sc *chaosScript, onStaged func([]blockstore.Hash)) []chaosStep {
	blobBytes := func(lo, hi int) (n int64) {
		for i := lo; i < hi; i++ {
			n += int64(sc.sizes[i])
		}
		return
	}
	// delta is one delta upload under nonce, its IDs recorded as key.
	delta := func(c *Client, key string, nonce uint64, idx int, m blockstore.Manifest, blocks [][]byte, got map[string][]int64) error {
		staged, err := putMissing(c, m.Hashes, blocks)
		if err != nil {
			return err
		}
		onStaged(staged)
		ids, err := c.commitManifests(nonce, []wire.ManifestItem{sc.manifestItem(idx, m)})
		if err == nil {
			got[key] = ids
		}
		return err
	}
	return []chaosStep{
		{name: "batch1", nonce: 0xBEE50001, images: 3, bytes: blobBytes(0, 3),
			run: func(c *Client, _ *server.Server, got map[string][]int64) error {
				ids, err := sc.uploadChunk(c, 0xBEE50001, 0, 3)
				if err == nil {
					got["batch1"] = ids
				}
				return err
			}},
		{name: "batch2", nonce: 0xBEE50002, images: 2, bytes: blobBytes(3, 5),
			run: func(c *Client, _ *server.Server, got map[string][]int64) error {
				ids, err := sc.uploadChunk(c, 0xBEE50002, 3, 5)
				if err == nil {
					got["batch2"] = ids
				}
				return err
			}},
		{name: "deltaA", nonce: 0xBEE50003, images: 1, bytes: sc.manA.TotalBytes,
			run: func(c *Client, _ *server.Server, got map[string][]int64) error {
				return delta(c, "commitA", 0xBEE50003, 5, sc.manA, sc.blocksA, got)
			}},
		{name: "checkpoint",
			run: func(_ *Client, srv *server.Server, _ map[string][]int64) error {
				return srv.Checkpoint()
			}},
		{name: "deltaB", nonce: 0xBEE50004, images: 1, bytes: sc.manB.TotalBytes,
			run: func(c *Client, _ *server.Server, got map[string][]int64) error {
				return delta(c, "commitB", 0xBEE50004, 6, sc.manB, sc.blocksB, got)
			}},
		{name: "batch3", nonce: 0xBEE50005, images: 2, bytes: blobBytes(7, 9),
			run: func(c *Client, _ *server.Server, got map[string][]int64) error {
				ids, err := sc.uploadChunk(c, 0xBEE50005, 7, 9)
				if err == nil {
					got["batch3"] = ids
				}
				return err
			}},
	}
}

// recoverChaos rebuilds the server from the state directory through the
// given filesystem (nil = the real one) and serves it on addr ("" picks
// a port). SyncEachRecord so every acknowledgement implies durability —
// the property the sweep's byte-identical assertion relies on.
func tryRecoverChaos(stateDir, addr string, fs diskfault.FS) (*server.Server, *server.TCPServer, string, error) {
	srv, _, err := server.Recover(server.RecoverConfig{
		WAL: wal.Config{
			Dir:    filepath.Join(stateDir, "wal"),
			FS:     fs,
			Policy: wal.SyncEachRecord,
		},
	})
	if err != nil {
		return nil, nil, "", err
	}
	tcp := server.NewTCP(srv)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	bound, err := tcp.Listen(addr)
	if err != nil {
		return nil, nil, "", err
	}
	return srv, tcp, bound.String(), nil
}

func recoverChaos(t *testing.T, stateDir, addr string, fs diskfault.FS) (*server.Server, *server.TCPServer, string) {
	t.Helper()
	srv, tcp, bound, err := tryRecoverChaos(stateDir, addr, fs)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return srv, tcp, bound
}

func chaosDial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := DialOptions(addr, Options{
		DialTimeout:        time.Second,
		RequestTimeout:     2 * time.Second,
		MaxRetries:         2,
		BackoffBase:        time.Millisecond,
		BackoffMax:         5 * time.Millisecond,
		BreakerCooldown:    time.Millisecond,
		BreakerCooldownMax: 5 * time.Millisecond,
		Seed:               1,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return c
}

// replayAllNonces retries every nonce-carrying frame of the script
// against a recovered server — the lost-ack model, after a crash. Every
// replay must answer with the originally assigned IDs (dedup seeded
// from the replayed log) and must not change server state.
func replayAllNonces(t *testing.T, c *Client, sc *chaosScript, srv *server.Server, want map[string][]int64) {
	t.Helper()
	before := srv.Stats()
	replays := []struct {
		name string
		run  func() ([]int64, error)
	}{
		{"batch1", func() ([]int64, error) { return sc.uploadChunk(c, 0xBEE50001, 0, 3) }},
		{"batch2", func() ([]int64, error) { return sc.uploadChunk(c, 0xBEE50002, 3, 5) }},
		{"commitA", func() ([]int64, error) {
			return c.commitManifests(0xBEE50003, []wire.ManifestItem{sc.manifestItem(5, sc.manA)})
		}},
		{"commitB", func() ([]int64, error) {
			return c.commitManifests(0xBEE50004, []wire.ManifestItem{sc.manifestItem(6, sc.manB)})
		}},
		{"batch3", func() ([]int64, error) { return sc.uploadChunk(c, 0xBEE50005, 7, 9) }},
	}
	for _, r := range replays {
		ids, err := r.run()
		if err != nil {
			t.Fatalf("replay %s: %v", r.name, err)
		}
		if !reflect.DeepEqual(ids, want[r.name]) {
			t.Fatalf("replay %s returned %v, original IDs were %v", r.name, ids, want[r.name])
		}
	}
	if after := srv.Stats(); after != before {
		t.Fatalf("nonce replays mutated state: %+v -> %+v", before, after)
	}
}

// TestChaosCrashRecoveryZeroLoss is the end-to-end proof: beesd loses
// power at EVERY mutating filesystem operation of a full client
// workload — mid WAL append, mid snapshot rename, mid checkpoint
// truncation — restarts over the surviving files, and the client
// retries the failed step with its original nonce. After every crash
// point the final state (Stats, block refcounts, assigned upload IDs)
// must be byte-identical to a run that never crashed: torn WAL tails
// are truncated, acknowledged commits are never lost, and un-acked
// frames are never answered from the dedup window as if they had been
// applied. A staged block is not acknowledged as durable, so some crash
// points must forget one; the step's retry re-sends it.
func TestChaosCrashRecoveryZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-anywhere sweep restarts the server dozens of times")
	}
	sc := newChaosScript()
	var staged []blockstore.Hash // put-acked by the step in flight
	steps := chaosSteps(sc, func(hs []blockstore.Hash) { staged = hs })
	lostStaged := 0 // crash points whose recovery forgot a put-acked block

	// --- Baseline: the same script with no faults. ----------------------
	baseDir := t.TempDir()
	baseSrv, baseTCP, baseAddr := recoverChaos(t, baseDir, "", nil)
	baseClient := chaosDial(t, baseAddr)
	wantIDs := map[string][]int64{}
	for _, st := range steps {
		if err := st.run(baseClient, baseSrv, wantIDs); err != nil {
			t.Fatalf("baseline %s: %v", st.name, err)
		}
	}
	wantStats := baseSrv.Stats()
	wantRefs := baseSrv.Blocks().RefCounts()
	baseClient.Close()
	if err := baseTCP.Close(); err != nil {
		t.Fatal(err)
	}
	// Four delta blocks (A's three plus B's tail), one per chunk image.
	if wantStats.Images == 0 || len(wantRefs) != 4+7 {
		t.Fatalf("baseline unhealthy: %+v, %d blocks", wantStats, len(wantRefs))
	}

	// --- Kill-anywhere sweep: crash at FS op k, restart, retry. ---------
	for k := int64(1); ; k++ {
		faulty := diskfault.New(diskfault.Config{Seed: k, CrashAfterOps: k})
		stateDir := t.TempDir()
		crashes := 0
		srv, tcp, addr, err := tryRecoverChaos(stateDir, "", faulty)
		if err != nil {
			// The crash point landed inside the initial WAL open: the
			// process died before serving a single frame. Restart clean.
			if !faulty.Crashed() {
				t.Fatalf("k=%d: initial recover failed without a crash: %v", k, err)
			}
			crashes++
			srv, tcp, addr = recoverChaos(t, stateDir, "", nil)
		}
		c := chaosDial(t, addr)

		gotIDs := map[string][]int64{}
		ackedImages, ackedBytes := 0, int64(0)
		for i := 0; i < len(steps); {
			staged = nil
			err := steps[i].run(c, srv, gotIDs)
			if err == nil {
				ackedImages += steps[i].images
				ackedBytes += steps[i].bytes
				i++
				continue
			}
			if !faulty.Crashed() {
				t.Fatalf("k=%d: step %s failed without a crash: %v", k, steps[i].name, err)
			}
			if crashes++; crashes > 1 {
				t.Fatalf("k=%d: second failure after restart at step %s: %v", k, steps[i].name, err)
			}
			// The kill: drop the process, restart over the surviving
			// files with a healthy disk, same address (the client's
			// breaker redials transparently).
			tcp.Close()
			if l := srv.WAL(); l != nil {
				l.Close()
			}
			srv, tcp, _ = recoverChaos(t, stateDir, addr, nil)
			// Recovery must hold the acknowledged prefix — plus, at most,
			// the one in-flight frame (its record can reach the platter
			// with the crash landing between persistence and the ack; the
			// nonce retry below is then answered from the rebuilt dedup
			// window with the original IDs). What can never appear is a
			// frame whose record was torn: un-persisted means unapplied.
			st := srv.Stats()
			exact := st.Images == ackedImages && st.BytesReceived == ackedBytes
			lostAck := st.Images == ackedImages+steps[i].images &&
				st.BytesReceived == ackedBytes+steps[i].bytes
			if !exact && !lostAck {
				t.Fatalf("k=%d: recovered server holds %+v after step %s, acked prefix was %d images / %d bytes",
					k, st, steps[i].name, ackedImages, ackedBytes)
			}
			for _, h := range staged {
				if !srv.Blocks().Has(h) {
					lostStaged++
					break
				}
			}
			// Retry the failed step with the same nonce (i unchanged).
		}

		if crashes == 0 && !faulty.Crashed() {
			// Crash point beyond a full clean pass: every op is covered.
			c.Close()
			tcp.Close()
			t.Logf("sweep covered %d crash points, %d of them forgot a put-acked block", k-1, lostStaged)
			if lostStaged == 0 {
				t.Fatal("no crash point forgot a put-acked block: the sweep never crashed between a put and its commit")
			}
			break
		}

		// --- Exactly-once accounting at this crash point. ---------------
		if st := srv.Stats(); st != wantStats {
			t.Fatalf("k=%d: final stats %+v, crash-free run had %+v", k, st, wantStats)
		}
		if refs := srv.Blocks().RefCounts(); !reflect.DeepEqual(refs, wantRefs) {
			t.Fatalf("k=%d: refcounts %v, crash-free run had %v", k, refs, wantRefs)
		}
		if !reflect.DeepEqual(gotIDs, wantIDs) {
			t.Fatalf("k=%d: assigned IDs %v, crash-free run assigned %v", k, gotIDs, wantIDs)
		}

		// --- And once more from disk: restart clean, replay every nonce.
		c.Close()
		tcp.Close()
		if l := srv.WAL(); l != nil {
			l.Close()
		}
		srv2, tcp2, addr2 := recoverChaos(t, stateDir, "", nil)
		if st := srv2.Stats(); st != wantStats {
			t.Fatalf("k=%d: state recovered from disk is %+v, want %+v", k, st, wantStats)
		}
		if refs := srv2.Blocks().RefCounts(); !reflect.DeepEqual(refs, wantRefs) {
			t.Fatalf("k=%d: refcounts recovered from disk %v, want %v", k, refs, wantRefs)
		}
		c2 := chaosDial(t, addr2)
		replayAllNonces(t, c2, sc, srv2, wantIDs)
		c2.Close()
		tcp2.Close()
		if l := srv2.WAL(); l != nil {
			l.Close()
		}
	}
}
