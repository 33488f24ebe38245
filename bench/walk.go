package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bees/internal/blockstore"
	"bees/internal/client"
	"bees/internal/cluster"
	"bees/internal/core"
	"bees/internal/dataset"
	"bees/internal/diskfault"
	"bees/internal/features"
	"bees/internal/imagelib"
	"bees/internal/index"
	"bees/internal/server"
	"bees/internal/submod"
	"bees/internal/telemetry"
	"bees/internal/wal"
	"bees/internal/wire"
)

// The layer walk calls each layer's public functions on a fixed sample
// of the workload's own inputs and reports unit costs. It runs after
// the traced rounds, alone on the machine, so a unit cost times the
// count the workload reports says what the layer cost the workload when
// nothing contended; the spans say what it cost under load.

// timeIt runs fn reps times and returns the mean wall time and the mean
// heap allocation count of one run.
func timeIt(reps int, fn func()) (perRun time.Duration, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	return took / time.Duration(reps), float64(after.Mallocs-before.Mallocs) / float64(reps)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func layerWalk(imgs []*dataset.Image, sets []*features.BinarySet, scratch string) (map[string]float64, error) {
	if len(imgs) < 2 || len(sets) < frameSets {
		return nil, fmt.Errorf("sample too small: %d images, %d sets", len(imgs), len(sets))
	}
	m := make(map[string]float64)
	cfg := core.DefaultConfig()
	nImg := float64(len(imgs))

	// features, imagelib: the device's per-image work.
	rasters := make([]*imagelib.Raster, len(imgs))
	for i, im := range imgs {
		rasters[i] = im.Render()
	}
	own := make([]*features.BinarySet, len(imgs))
	d, allocs := timeIt(1, func() {
		for i, r := range rasters {
			own[i] = features.ExtractORB(r, cfg.Extraction)
		}
	})
	m["features.extract_ms_per_image"] = ms(d) / nImg
	m["features.extract_allocs_per_image"] = allocs / nImg
	prepared := make([]*features.PreparedBinarySet, len(own))
	d, _ = timeIt(8, func() {
		for i, s := range own {
			prepared[i] = s.Prepare()
		}
	})
	m["features.prepare_us_per_set"] = us(d) / nImg
	pairs := 0
	d, _ = timeIt(4, func() {
		pairs = 0
		for i := range prepared {
			for j := i + 1; j < len(prepared); j++ {
				features.MatchPrepared(prepared[i], prepared[j], cfg.HammingMax)
				pairs++
			}
		}
	})
	m["features.match_us_per_pair"] = us(d) / float64(pairs)
	resC := core.EAU(1)
	d, _ = timeIt(4, func() {
		for i, im := range imgs {
			im.SizeModel().Bytes(imagelib.CompressBitmap(rasters[i], resC), cfg.QualityProportion)
		}
	})
	m["imagelib.compress_ms_per_image"] = ms(d) / nImg

	// core, submod: the device's per-batch work.
	d, _ = timeIt(2, func() { core.ExtractAll(imgs, core.EAC(1), cfg.Extraction) })
	m["core.extract_all_ms_per_batch"] = ms(d)
	survivors := make([]int, len(own))
	for i := range survivors {
		survivors[i] = i
	}
	var graph *submod.Graph
	d, _ = timeIt(4, func() { graph = core.BuildBatchGraph(own, survivors, cfg.GraphDescriptors, cfg.HammingMax) })
	m["core.graph_ms_per_batch"] = ms(d)
	d, _ = timeIt(16, func() { submod.Summarize(graph, core.SSMMThreshold(1), cfg.SSMM) })
	m["submod.summarize_ms_per_batch"] = ms(d)
	for _, im := range imgs {
		im.Free()
	}

	// client: blob synthesis and manifesting of one chunk.
	sizes := (&scenes{rng: rand.New(rand.NewSource(1))}).blobSizes(chunkImages)
	items := make([]server.UploadItem, chunkImages)
	for i := range items {
		items[i] = server.UploadItem{Set: sets[i], Meta: server.UploadMeta{GroupID: int64(i), Bytes: sizes[i]}}
	}
	var wireItems []wire.UploadBatchItem
	var manifests []blockstore.Manifest
	d, _ = timeIt(4, func() {
		wireItems = client.WireItems(items)
		manifests = manifests[:0]
		for i := range wireItems {
			manifests = append(manifests, blockstore.ManifestOf(wireItems[i].Blob, blockstore.DefaultBlockSize))
		}
	})
	m["client.synth_manifest_ms_per_image"] = ms(d) / chunkImages

	walkWire(m, sets, wireItems, manifests)
	if err := walkServer(m, sets, wireItems, manifests, scratch); err != nil {
		return nil, err
	}
	walkIndex(m, sets)
	walkBlockstore(m, wireItems, manifests)
	if err := walkWAL(m, scratch); err != nil {
		return nil, err
	}

	// cluster: key → home shard → replica set, once per uploaded image.
	names := []string{"127.0.0.1:7731", "127.0.0.1:7732", "127.0.0.1:7733"}
	table, err := cluster.NewTable(names, clusterShards)
	if err != nil {
		return nil, err
	}
	d, _ = timeIt(200, func() {
		for i := range items {
			table.Replicas(table.ShardOf(client.ItemKey(&items[i])), cluster.DefaultReplication)
		}
	})
	m["cluster.route_ns_per_item"] = float64(d.Nanoseconds()) / chunkImages

	reg := telemetry.NewRegistry()
	d, _ = timeIt(20000, func() { reg.StartSpan("bench.walk").End() })
	m["telemetry.span_ns"] = float64(d.Nanoseconds())
	return m, nil
}

func blocksOf(wireItems []wire.UploadBatchItem, manifests []blockstore.Manifest) (hashes []blockstore.Hash, blocks []wire.Block) {
	for i := range wireItems {
		parts := blockstore.Split(wireItems[i].Blob, blockstore.DefaultBlockSize)
		for j, h := range manifests[i].Hashes {
			hashes = append(hashes, h)
			blocks = append(blocks, wire.Block{Hash: h, Data: parts[j]})
		}
	}
	return hashes, blocks
}

func manifestItems(wireItems []wire.UploadBatchItem, manifests []blockstore.Manifest) []wire.ManifestItem {
	out := make([]wire.ManifestItem, len(wireItems))
	for i, it := range wireItems {
		out[i] = wire.ManifestItem{Set: it.Set, GroupID: it.GroupID, Lat: it.Lat, Lon: it.Lon,
			TotalBytes: manifests[i].TotalBytes, BlockSize: uint32(manifests[i].BlockSize), Hashes: manifests[i].Hashes}
	}
	return out
}

// walkWire encodes and decodes one frame of each kind, shaped like the
// ones the workloads send: 8-set queries, 8-image chunks, 4-set shard
// queries answered with a full candidate list.
func walkWire(m map[string]float64, sets []*features.BinarySet, wireItems []wire.UploadBatchItem, manifests []blockstore.Manifest) {
	hashes, blocks := blocksOf(wireItems, manifests)
	mitems := manifestItems(wireItems, manifests)
	limit := index.DefaultConfig().CandidateLimit
	perSet := make([][]wire.ShardCandidate, clusterQuerySets)
	for i := range perSet {
		for c := 0; c < limit; c++ {
			perSet[i] = append(perSet[i], wire.ShardCandidate{ID: int64(c), Votes: uint32(limit - c), Sim: 0.01 * float64(c)})
		}
	}
	ids := make([]int64, len(mitems))
	frames := map[string]any{
		"query":            &wire.QueryRequest{Sets: sets[:frameSets]},
		"query_resp":       &wire.QueryResponse{MaxSims: make([]float64, frameSets)},
		"block_query":      &wire.BlockQuery{Hashes: hashes},
		"block_put":        &wire.BlockPut{Blocks: blocks},
		"manifest_commit":  &wire.ManifestCommit{Nonce: 1, Items: mitems},
		"upload_batch":     &wire.UploadBatchRequest{Nonce: 1, Items: wireItems},
		"shard_query":      &wire.ShardQuery{Shards: []uint32{0, 1, 2}, Limit: uint32(limit), Sets: sets[:clusterQuerySets]},
		"shard_query_resp": &wire.ShardQueryResponse{Stats: make([]wire.ShardStat, 3), PerSet: perSet},
		"shard_route":      &wire.ShardRoute{Nonce: 1, Shard: 0, IDs: ids, Query: hashes, Blocks: blocks, Items: mitems},
	}
	for _, name := range wireFrames {
		msg := frames[name]
		var buf bytes.Buffer
		d, _ := timeIt(16, func() {
			buf.Reset()
			wire.WriteFrame(&buf, msg)
		})
		m["wire.encode_us."+name] = us(d)
		encoded := buf.Bytes()
		d, allocs := timeIt(16, func() { wire.ReadFrame(bytes.NewReader(encoded)) })
		m["wire.decode_us."+name] = us(d)
		m["wire.decode_allocs."+name] = allocs
	}
}

func seededServer(reg *telemetry.Registry, sets []*features.BinarySet) *server.Server {
	srv := server.NewWithConfig(server.Config{Telemetry: reg})
	for i, s := range sets {
		srv.SeedIndex(s, server.UploadMeta{GroupID: int64(i)})
	}
	return srv
}

func walkServer(m map[string]float64, sets []*features.BinarySet, wireItems []wire.UploadBatchItem, manifests []blockstore.Manifest, scratch string) error {
	// Query, with and without a registry: the instrumentation's cost.
	frame := sets[:frameSets]
	with, without := seededServer(telemetry.NewRegistry(), sets), seededServer(nil, sets)
	var dWith, dWithout time.Duration
	for rep := 0; rep < 6; rep++ { // interleaved, so drift hits both alike
		d, _ := timeIt(2, func() { with.QueryMaxBatch(frame) })
		dWith += d
		d, _ = timeIt(2, func() { without.QueryMaxBatch(frame) })
		dWithout += d
	}
	m["server.query_ms_per_set"] = ms(dWith) / 6 / frameSets
	m["telemetry.query_overhead_pct"] = 100 * (float64(dWith)/float64(dWithout) - 1)

	var snap time.Duration
	snap, _ = timeIt(2, func() { with.SaveSnapshot(io.Discard) })
	m["server.snapshot_ms_per_kimage"] = ms(snap) * 1000 / float64(len(sets))

	// Commit of one chunk, blocks staged first, with a record-policy WAL
	// and without one.
	ups := make([]server.ManifestUpload, len(wireItems))
	_, blocks := blocksOf(wireItems, manifests)
	for i, it := range wireItems {
		ups[i] = server.ManifestUpload{Set: it.Set, Manifest: manifests[i],
			Meta: server.UploadMeta{GroupID: it.GroupID, Bytes: len(it.Blob)}}
	}
	commit := func(srv *server.Server) (time.Duration, error) {
		start := time.Now()
		for _, b := range blocks {
			if _, err := srv.StageBlock(b.Hash, b.Data); err != nil {
				return 0, err
			}
		}
		const chunks = 4
		for c := uint64(1); c <= chunks; c++ {
			if _, err := srv.CommitManifestsNonce(c, ups); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / (chunks * time.Duration(len(ups))), nil
	}
	d, err := commit(server.NewDefault())
	if err != nil {
		return err
	}
	m["server.commit_ms_per_image.nowal"] = ms(d)
	dir, err := os.MkdirTemp(scratch, "walk-commit-")
	if err != nil {
		return err
	}
	walCfg := wal.Config{Dir: dir, Policy: wal.SyncEachRecord}
	logged, _, err := server.Recover(server.RecoverConfig{WAL: walCfg})
	if err != nil {
		return err
	}
	if d, err = commit(logged); err != nil {
		return err
	}
	m["server.commit_ms_per_image"] = ms(d)
	if err := logged.WAL().Close(); err != nil {
		return err
	}
	start := time.Now()
	again, st, err := server.Recover(server.RecoverConfig{WAL: walCfg})
	if err != nil {
		return err
	}
	m["server.recover_records_per_s"] = float64(st.WALRecords) / time.Since(start).Seconds()
	if err := again.WAL().Close(); err != nil {
		return err
	}

	adm := server.NewAdmission(server.AdmissionConfig{})
	d, _ = timeIt(20000, func() {
		t := adm.Charge(1 << 20)
		adm.Admit(t, 0)
		t.Release()
	})
	m["server.admit_us"] = us(d)
	return nil
}

func walkIndex(m map[string]float64, sets []*features.BinarySet) {
	cfg := index.DefaultConfig()
	n := float64(len(sets))
	fill := func(x *index.Index, base int) {
		for i, s := range sets {
			x.Add(&index.Entry{ID: index.ImageID(base + i), Set: s, GroupID: int64(i)})
		}
	}
	x := index.New(cfg)
	d, allocs := timeIt(1, func() { fill(x, 0) })
	m["index.add_ms_per_image"] = ms(d) / n
	m["index.add_allocs_per_image"] = allocs / n

	queries := sets[:frameSets]
	scan := func(x *index.Index) {
		for _, q := range queries {
			x.QueryMax(q)
		}
	}
	const scans = 2
	d, allocs = timeIt(scans, func() { scan(x) })
	m["index.query_ms_per_set"] = ms(d) / frameSets
	m["index.query_allocs_per_set"] = allocs / frameSets
	cands := 0
	for _, q := range queries {
		cands += len(x.QueryCandidates(q, cfg.CandidateLimit))
	}
	m["index.candidates_per_set"] = float64(cands) / frameSets

	// nproc concurrent readers: what a query costs when every core
	// already runs one.
	readers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < scans; rep++ {
				scan(x)
			}
		}()
	}
	wg.Wait()
	m["index.query_ms_per_set.readers"] = ms(time.Since(start)) / scans / frameSets

	// One reader beside one writer adding to the same index.
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for base := len(sets); !stop.Load(); base += len(sets) {
			fill(x, base)
		}
	}()
	d, _ = timeIt(scans, func() { scan(x) })
	stop.Store(true)
	<-done
	m["index.query_ms_per_set.with_writer"] = ms(d) / frameSets
}

func walkBlockstore(m map[string]float64, wireItems []wire.UploadBatchItem, manifests []blockstore.Manifest) {
	hashes, blocks := blocksOf(wireItems, manifests)
	var st *blockstore.Store
	d, _ := timeIt(4, func() {
		st = blockstore.NewStore(blockstore.Config{})
		for _, b := range blocks {
			st.Put(b.Hash, b.Data)
		}
	})
	m["blockstore.put_us_per_block"] = us(d) / float64(len(blocks))
	d, _ = timeIt(2000, func() { st.HaveBitmap(hashes) })
	m["blockstore.have_us_per_hash"] = us(d) / float64(len(hashes))
	d, _ = timeIt(2000, func() { st.Commit(manifests...) })
	m["blockstore.commit_us_per_manifest"] = us(d) / float64(len(manifests))
}

func walkWAL(m map[string]float64, scratch string) error {
	record := make([]byte, 288) // the size internal/wal's own benchmark appends
	open := func(policy wal.SyncPolicy, fs diskfault.FS) (*wal.Log, wal.Config, error) {
		dir, err := os.MkdirTemp(scratch, "walk-wal-")
		if err != nil {
			return nil, wal.Config{}, err
		}
		cfg := wal.Config{Dir: dir, Policy: policy, FS: fs}
		l, err := wal.Open(cfg)
		return l, cfg, err
	}

	// Policy none: the cost of framing, checksumming and the write.
	l, cfg, err := open(wal.SyncNone, nil)
	if err != nil {
		return err
	}
	const records = 4000
	d, _ := timeIt(records, func() { err = l.Append(record) })
	if err != nil {
		return err
	}
	m["wal.append_us_per_record"] = us(d)
	if err := l.Close(); err != nil {
		return err
	}
	start := time.Now()
	st, err := wal.Replay(cfg, func([]byte) error { return nil })
	if err != nil {
		return err
	}
	m["wal.replay_records_per_s"] = float64(st.Records) / time.Since(start).Seconds()

	// Policy record with nproc concurrent appenders: the amortised cost
	// of a durable append, which a single appender cannot show.
	var syncMu sync.Mutex
	var syncMs []float64
	fs := timingFS{diskfault.OS(), func(start, end time.Time) {
		syncMu.Lock()
		syncMs = append(syncMs, ms(end.Sub(start)))
		syncMu.Unlock()
	}}
	if l, _, err = open(wal.SyncEachRecord, fs); err != nil {
		return err
	}
	appenders := runtime.GOMAXPROCS(0)
	const each = 100
	errs := make([]error, appenders)
	var wg sync.WaitGroup
	start = time.Now()
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each && errs[a] == nil; i++ {
				errs[a] = l.Append(record)
			}
		}(a)
	}
	wg.Wait()
	m["wal.append_ms.appenders"] = ms(time.Since(start)) / float64(appenders*each)
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	m["wal.fsync_ms_p50"] = median(syncMs)
	return l.Close()
}
