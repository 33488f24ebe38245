package main

import (
	"hash"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"

	"bees/internal/client"
	"bees/internal/core"
	"bees/internal/dataset"
	"bees/internal/energy"
	"bees/internal/features"
	"bees/internal/netsim"
	"bees/internal/server"
	"bees/internal/telemetry"
)

// single is the part every single-node workload shares: one WAL-backed
// node, its clients, and the restart check that ends the round.
type single struct {
	node      *node
	clientReg *telemetry.Registry
	lanes     []*lane
	clients   []*client.Client
}

func (s *single) bootNode(e *env, clients int) error {
	var err error
	if s.node, err = bootNode(e); err != nil {
		return err
	}
	s.clientReg = telemetry.NewRegistry()
	s.lanes, s.clients = nil, nil
	for k := 0; k < clients; k++ {
		l := e.newLane()
		c, err := dial(s.node.addr, l, s.clientReg, k)
		if err != nil {
			return err
		}
		s.lanes, s.clients = append(s.lanes, l), append(s.clients, c)
	}
	return nil
}

func (s *single) gauges() map[string]float64 {
	return collect([]*telemetry.Registry{s.node.reg, s.clientReg}, s.lanes, []*server.Server{s.node.srv})
}

// restartChecks is how many rounds of a phase end with a restart:
// replaying a round's WAL takes about as long as writing it did, and
// three samples give the median.
const restartChecks = 3

// restartCheck stops the node and recovers a fresh server from its WAL
// directory, as a restarted beesd would: what was acknowledged must be
// what the disk holds.
func (s *single) restartCheck(p *phase) {
	if p.restarts >= restartChecks {
		return
	}
	p.restarts++
	for _, c := range s.clients {
		c.Close()
	}
	s.clients = nil
	wantStats, wantBlocks := s.node.srv.Stats(), s.node.srv.Blocks().Stats()
	if err := s.node.stop(); err != nil {
		p.fail("stop: %v", err)
	}
	srv, _, took, err := s.node.recoverAgain()
	s.node = nil
	if err != nil {
		p.fail("recover: %v", err)
		return
	}
	p.recovery += took
	if got := srv.Stats(); got != wantStats {
		p.fail("stats after recover %+v, before %+v", got, wantStats)
	}
	if got := srv.Blocks().Stats(); got != wantBlocks {
		p.fail("block stats after recover %+v, before %+v", got, wantBlocks)
	}
}

func (s *single) stop() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.node != nil {
		s.node.stop()
	}
	s.clients, s.node = nil, nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// device_batch

// batchSeedStride keeps the dataset seeds of neighbouring run seeds apart.
const batchSeedStride = 4099

type deviceBatch struct {
	single
	batches  [][]*dataset.Image
	twins    []*dataset.Image
	twinSets []*features.BinarySet
	pipe     *core.Pipeline

	wantReports []core.BatchReport
	wantStats   server.Stats

	api     core.ServerAPI
	reports []core.BatchReport
}

func newPhone() *core.Device {
	return core.NewDevice(nil, netsim.NewLink(256000), energy.DefaultModel())
}

func (w *deviceBatch) prepare(seed int64, sz sizes) {
	w.pipe = core.New(core.DefaultConfig())
	for i := 0; i < sz.DeviceBatches; i++ {
		// The paper's Section IV-B3 batch at 16 images: 2 in-batch
		// near-duplicates, a quarter with a twin already on the server.
		db := dataset.NewDisasterBatch(seed*batchSeedStride+int64(i), batchImages, 2, 0.25)
		w.batches = append(w.batches, db.Batch)
		w.twins = append(w.twins, db.ServerTwins...)
	}
	w.twinSets = extract(w.twins)
}

func (w *deviceBatch) fingerprint(h hash.Hash) {
	hashSets(h, w.twinSets)
	for _, b := range w.batches {
		for _, im := range b {
			hashU64(h, uint64(im.GroupID))
			hashU64(h, math.Float64bits(im.Lat))
			hashU64(h, math.Float64bits(im.Lon))
		}
	}
}

func (w *deviceBatch) seedTwins(srv *server.Server) {
	for i, s := range w.twinSets {
		srv.SeedIndex(s, seedMeta(w.twins[i]))
	}
}

func (w *deviceBatch) boot(e *env) error {
	if err := w.bootNode(e, 1); err != nil {
		return err
	}
	w.seedTwins(w.node.srv)
	rs := client.NewRemoteServer(w.clients[0])
	w.api = rs
	if e.tr != nil {
		w.api = apiSpy{rs, w.lanes[0]}
	}
	return nil
}

// run pushes every batch through the pipeline on a fresh phone, timing
// each ProcessBatch with timed. Rasters are rendered before the clock
// starts: capturing the photo is not BEES's work.
func (w *deviceBatch) run(api core.ServerAPI, timed func(items int, fn func())) []core.BatchReport {
	dev := newPhone()
	reports := make([]core.BatchReport, len(w.batches))
	for i, batch := range w.batches {
		for _, im := range batch {
			im.Render()
		}
		timed(len(batch), func() { reports[i] = w.pipe.ProcessBatch(dev, api, batch) })
	}
	return reports
}

func (w *deviceBatch) play(p *phase) {
	w.reports = w.run(w.api, func(items int, fn func()) { p.op(items, fn, w.lanes[0]) })
}

func (w *deviceBatch) check(p *phase) {
	if w.wantReports == nil {
		oracle := server.NewDefault()
		w.seedTwins(oracle)
		w.wantReports = w.run(oracle, func(_ int, fn func()) { fn() })
		w.wantStats = oracle.Stats()
	}
	for i, got := range w.reports {
		if !reflect.DeepEqual(got, w.wantReports[i]) {
			p.fail("batch %d report %+v, oracle %+v", i, got, w.wantReports[i])
		}
		p.count("core.captured", float64(got.Total))
		p.count("core.eliminated", float64(got.CrossEliminated+got.InBatchEliminated))
	}
	if got := w.node.srv.Stats(); got != w.wantStats {
		p.fail("server stats %+v, oracle %+v", got, w.wantStats)
	}
	w.restartCheck(p)
}

func (w *deviceBatch) walkInput() ([]*dataset.Image, []*features.BinarySet) {
	return w.batches[0], w.twinSets
}

// ---------------------------------------------------------------------
// query_heavy

const queryClients = 2

type queryHeavy struct {
	single
	sample    []*dataset.Image
	indexImgs []*dataset.Image
	indexSets []*features.BinarySet
	poolSets  []*features.BinarySet
	frames    [queryClients][][]int

	want [queryClients][][]float64
	got  [queryClients][][]float64
}

// warmCorpus builds what the read workloads share: an index of novel
// scenes and a query pool, half re-shoots of indexed scenes (hits),
// half scenes the index has never seen (misses).
func warmCorpus(sc *scenes, index, pool int) (imgs []*dataset.Image, indexSets, poolSets []*features.BinarySet) {
	imgs = sc.novel(index)
	queries := append(sc.reshoots(imgs, pool/2), sc.novel(pool-pool/2)...)
	all := extract(append(append([]*dataset.Image(nil), imgs...), queries...))
	return imgs, all[:index], all[index:]
}

func seedWarm(srv *server.Server, imgs []*dataset.Image, sets []*features.BinarySet) {
	for i, s := range sets {
		srv.SeedIndex(s, seedMeta(imgs[i]))
	}
}

func (w *queryHeavy) prepare(seed int64, sz sizes) {
	sc := newScenes(seed)
	w.indexImgs, w.indexSets, w.poolSets = warmCorpus(sc, sz.QueryIndex, sz.QueryPool)
	for k := range w.frames {
		w.frames[k] = sc.frames(sz.QueryFrames, frameSets, len(w.poolSets))
	}
	w.sample = w.indexImgs[:batchImages]
}

func (w *queryHeavy) fingerprint(h hash.Hash) {
	hashSets(h, w.indexSets)
	for k := range w.frames {
		for _, f := range w.frames[k] {
			hashSets(h, pick(w.poolSets, f))
		}
	}
}

func (w *queryHeavy) boot(e *env) error {
	if err := w.bootNode(e, queryClients); err != nil {
		return err
	}
	seedWarm(w.node.srv, w.indexImgs, w.indexSets)
	return nil
}

func (w *queryHeavy) play(p *phase) {
	var wg sync.WaitGroup
	for k := range w.frames {
		w.got[k] = make([][]float64, len(w.frames[k]))
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			l, c := w.lanes[k], w.clients[k]
			for i, f := range w.frames[k] {
				sets := pick(w.poolSets, f)
				p.op(len(sets), func() {
					l.call("call.query", func() {
						sims, err := c.QueryMax(sets)
						if err != nil {
							p.fail("client %d frame %d: %v", k, i, err)
						}
						w.got[k][i] = sims
					})
				}, l)
			}
		}(k)
	}
	wg.Wait()
}

func (w *queryHeavy) check(p *phase) {
	if w.want[0] == nil {
		oracle := server.NewDefault()
		seedWarm(oracle, w.indexImgs, w.indexSets)
		for k := range w.frames {
			for _, f := range w.frames[k] {
				w.want[k] = append(w.want[k], oracle.QueryMaxBatch(pick(w.poolSets, f)))
			}
		}
	}
	for k := range w.frames {
		for i := range w.frames[k] {
			if got := w.got[k][i]; got != nil && !sameFloats(got, w.want[k][i]) {
				p.fail("client %d frame %d: sims %v, oracle %v", k, i, got, w.want[k][i])
			}
		}
	}
}

func (w *queryHeavy) walkInput() ([]*dataset.Image, []*features.BinarySet) {
	return w.sample, w.indexSets
}

// ---------------------------------------------------------------------
// ingest_heavy

const ingestClients = 2

// ingestOp is one UploadItems call: a chunk, or the same-nonce replay of
// the chunk before it (the response was "lost"; the client resends).
type ingestOp struct {
	chunk  int
	replay bool
}

type ingestHeavy struct {
	single
	sample  []*dataset.Image
	sets    []*features.BinarySet
	chunks  [ingestClients][][]server.UploadItem
	ops     [ingestClients][]ingestOp
	images  int   // distinct uploads of a round, both clients
	payload int64 // their bytes

	ids [ingestClients][][]int64 // per op
}

func (w *ingestHeavy) prepare(seed int64, sz sizes) {
	sc := newScenes(seed)
	perClient := sz.IngestChunks * chunkImages
	half := perClient / 2
	// 40 % of a client's images are byte-identical to one the other
	// client uploads: same set and metadata, so the same synthesized
	// blob and the same blocks. Each shared half is sent early by one
	// client and late by the other, so which of the two pays for the
	// blocks does not depend on how the clients interleave.
	shared := perClient * 2 / 10 // per half
	imgs := sc.novel(2*shared + ingestClients*(perClient-2*shared))
	w.sets = extract(imgs)
	w.sample = imgs[:batchImages]
	// Sizes are spread over the shared and the private images separately,
	// so that the bytes dedup saves do not depend on the seed either.
	both := sc.uploadItems(imgs[:2*shared], w.sets[:2*shared])
	early, late := both[:shared], both[shared:]
	private := sc.uploadItems(imgs[2*shared:], w.sets[2*shared:])
	for k := 0; k < ingestClients; k++ {
		own := private[k*(perClient-2*shared) : (k+1)*(perClient-2*shared)]
		first, second := early, late
		if k == 1 {
			first, second = late, early
		}
		a := append(append([]server.UploadItem(nil), first...), own[:half-shared]...)
		b := append(append([]server.UploadItem(nil), second...), own[half-shared:]...)
		sc.rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		sc.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		w.chunks[k] = chunked(append(a, b...), chunkImages)
		// 5 % of the calls are replays, at least one per client.
		replays := (len(w.chunks[k]) + 10) / 20
		if replays < 1 {
			replays = 1
		}
		after := make(map[int]bool)
		for len(after) < replays {
			after[sc.rng.Intn(len(w.chunks[k]))] = true
		}
		for c := range w.chunks[k] {
			w.ops[k] = append(w.ops[k], ingestOp{chunk: c})
			if after[c] {
				w.ops[k] = append(w.ops[k], ingestOp{chunk: c, replay: true})
			}
		}
		for _, ch := range w.chunks[k] {
			for _, it := range ch {
				w.images++
				w.payload += int64(it.Meta.Bytes)
			}
		}
	}
}

func (w *ingestHeavy) fingerprint(h hash.Hash) {
	for k := range w.ops {
		for _, op := range w.ops[k] {
			hashItems(h, w.chunks[k][op.chunk])
			if op.replay {
				hashU64(h, 1)
			}
		}
	}
}

func (w *ingestHeavy) boot(e *env) error { return w.bootNode(e, ingestClients) }

func (w *ingestHeavy) play(p *phase) {
	var wg sync.WaitGroup
	for k := range w.ops {
		w.ids[k] = make([][]int64, len(w.ops[k]))
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			l, rs := w.lanes[k], client.NewRemoteServer(w.clients[k])
			var nonce uint64
			for i, op := range w.ops[k] {
				items := w.chunks[k][op.chunk]
				if !op.replay {
					nonce = rs.NewUploadNonce()
				}
				p.op(len(items), func() {
					l.call("call.upload", func() {
						ids, err := rs.UploadItems(nonce, items)
						if err != nil {
							p.fail("client %d op %d: %v", k, i, err)
						}
						w.ids[k][i] = ids
					})
				}, l)
			}
		}(k)
	}
	wg.Wait()
}

func (w *ingestHeavy) check(p *phase) {
	var all []int64
	for k := range w.ops {
		for i, op := range w.ops[k] {
			ids := w.ids[k][i]
			switch {
			case ids == nil: // already counted as a transport failure
			case op.replay:
				if !slices.Equal(ids, w.ids[k][i-1]) {
					p.fail("client %d op %d: replay got ids %v, original %v", k, i, ids, w.ids[k][i-1])
				}
			default:
				if len(ids) != len(w.chunks[k][op.chunk]) {
					p.fail("client %d op %d: %d ids for %d images", k, i, len(ids), len(w.chunks[k][op.chunk]))
				}
				all = append(all, ids...)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, id := range all {
		if id != int64(i) {
			p.fail("ids not dense: position %d holds %d", i, id)
			break
		}
	}
	want := server.Stats{Images: w.images, BytesReceived: w.payload}
	if got := w.node.srv.Stats(); got != want {
		p.fail("server stats %+v, op stream says %+v", got, want)
	}
	w.restartCheck(p)
}

func (w *ingestHeavy) walkInput() ([]*dataset.Image, []*features.BinarySet) {
	return w.sample, w.sets
}

// ---------------------------------------------------------------------
// mixed_rw

type mixedRW struct {
	single
	warmImgs []*dataset.Image
	warmSets []*features.BinarySet
	poolSets []*features.BinarySet
	frames   [][]int
	chunks   [][]server.UploadItem

	// The oracle brackets each step: the reader's frame answered before
	// and after the writer's chunk of the same step is applied.
	lo, hi  [][]float64
	wantIDs [][]int64

	sims [][]float64
	ids  [][]int64
}

func (w *mixedRW) prepare(seed int64, sz sizes) {
	sc := newScenes(seed)
	w.warmImgs, w.warmSets, w.poolSets = warmCorpus(sc, sz.MixedIndex, sz.MixedPool)
	w.frames = sc.frames(sz.MixedSteps, frameSets, len(w.poolSets))
	// The writer uploads scenes no query is about, so a frame's answer
	// does not depend on how far the chunk beside it has got.
	fresh := sc.novel(sz.MixedSteps * chunkImages)
	w.chunks = chunked(sc.uploadItems(fresh, extract(fresh)), chunkImages)
}

func (w *mixedRW) fingerprint(h hash.Hash) {
	hashSets(h, w.warmSets)
	for i, f := range w.frames {
		hashSets(h, pick(w.poolSets, f))
		hashItems(h, w.chunks[i])
	}
}

func (w *mixedRW) boot(e *env) error {
	if err := w.bootNode(e, 2); err != nil {
		return err
	}
	seedWarm(w.node.srv, w.warmImgs, w.warmSets)
	return nil
}

// play runs reader and writer in lockstep: step i issues frame i and
// chunk i together and ends when both are answered. Every query
// therefore meets the same index in every round and every run, which a
// free-running writer would not give.
func (w *mixedRW) play(p *phase) {
	reader, writer := w.clients[0], client.NewRemoteServer(w.clients[1])
	w.sims = make([][]float64, len(w.frames))
	w.ids = make([][]int64, len(w.frames))
	for i := range w.frames {
		sets, items := pick(w.poolSets, w.frames[i]), w.chunks[i]
		nonce := writer.NewUploadNonce()
		p.op(len(sets)+len(items), func() {
			done := make(chan struct{})
			go func() {
				defer close(done)
				w.lanes[1].call("call.upload", func() {
					ids, err := writer.UploadItems(nonce, items)
					if err != nil {
						p.fail("step %d upload: %v", i, err)
					}
					w.ids[i] = ids
				})
			}()
			w.lanes[0].call("call.query", func() {
				sims, err := reader.QueryMax(sets)
				if err != nil {
					p.fail("step %d query: %v", i, err)
				}
				w.sims[i] = sims
			})
			<-done
		}, w.lanes[0], w.lanes[1])
	}
}

func (w *mixedRW) check(p *phase) {
	if w.lo == nil {
		oracle := server.NewDefault()
		seedWarm(oracle, w.warmImgs, w.warmSets)
		for i, f := range w.frames {
			sets := pick(w.poolSets, f)
			w.lo = append(w.lo, oracle.QueryMaxBatch(sets))
			ids, _ := oracle.UploadItems(uint64(i+1), w.chunks[i])
			w.wantIDs = append(w.wantIDs, ids)
			w.hi = append(w.hi, oracle.QueryMaxBatch(sets))
		}
	}
	for i := range w.frames {
		if w.ids[i] != nil && !slices.Equal(w.ids[i], w.wantIDs[i]) {
			p.fail("step %d: ids %v, oracle %v", i, w.ids[i], w.wantIDs[i])
		}
		for j, got := range w.sims[i] {
			lo, hi := math.Min(w.lo[i][j], w.hi[i][j]), math.Max(w.lo[i][j], w.hi[i][j])
			if got < lo || got > hi {
				p.fail("step %d set %d: sim %v outside oracle [%v, %v]", i, j, got, lo, hi)
				break
			}
		}
	}
	w.restartCheck(p)
}

func (w *mixedRW) walkInput() ([]*dataset.Image, []*features.BinarySet) {
	return w.warmImgs[:batchImages], w.warmSets
}

// ---------------------------------------------------------------------
// cluster3

// One cluster iteration is a device's turn: an 8-image upload, then a
// 4-set query. (A queried set costs ~35 ms through the router, so larger
// turns would leave too few samples for the tail.)
const (
	clusterUpload    = chunkImages
	clusterQuerySets = 4
)

type cluster3 struct {
	sample   []*dataset.Image
	warmSets []*features.BinarySet
	poolSets []*features.BinarySet
	warm     [][]server.UploadItem
	uploads  [][]server.UploadItem
	frames   [][]int // one per iteration

	wantWarm, wantIDs [][]int64
	wantSims          [][]float64
	wantStats         server.Stats

	stack     *clusterStack
	lane      *lane
	clientReg *telemetry.Registry
	gotWarm   [][]int64
	ids       [][]int64
	sims      [][]float64
}

func (w *cluster3) prepare(seed int64, sz sizes) {
	sc := newScenes(seed)
	warmImgs, warmSets, poolSets := warmCorpus(sc, sz.ClusterWarm, sz.ClusterPool)
	w.sample, w.warmSets, w.poolSets = warmImgs[:batchImages], warmSets, poolSets
	w.warm = chunked(sc.uploadItems(warmImgs, warmSets), clusterUpload)
	fresh := sc.novel(sz.ClusterIters * clusterUpload)
	w.uploads = chunked(sc.uploadItems(fresh, extract(fresh)), clusterUpload)
	w.frames = sc.frames(sz.ClusterIters, clusterQuerySets, len(poolSets))
}

func (w *cluster3) fingerprint(h hash.Hash) {
	for _, ch := range w.warm {
		hashItems(h, ch)
	}
	for i, ch := range w.uploads {
		hashItems(h, ch)
		hashSets(h, pick(w.poolSets, w.frames[i]))
	}
}

func (w *cluster3) boot(e *env) error {
	w.lane, w.clientReg = e.newLane(), telemetry.NewRegistry()
	var err error
	if w.stack, err = bootCluster(e, w.lane, w.clientReg); err != nil {
		return err
	}
	w.gotWarm = w.gotWarm[:0]
	for _, ch := range w.warm {
		ids, err := w.stack.router.UploadItems(w.stack.router.NewNonce(), ch)
		if err != nil {
			return err
		}
		w.gotWarm = append(w.gotWarm, ids)
	}
	return nil
}

func (w *cluster3) gauges() map[string]float64 {
	var servers []*server.Server
	for _, nd := range w.stack.nodes {
		for _, sh := range nd.Shards() {
			servers = append(servers, nd.ShardServer(sh))
		}
	}
	return collect(append([]*telemetry.Registry{w.clientReg}, w.stack.regs...), []*lane{w.lane}, servers)
}

func (w *cluster3) play(p *phase) {
	r := w.stack.router
	w.ids = make([][]int64, len(w.uploads))
	w.sims = make([][]float64, len(w.frames))
	for i, items := range w.uploads {
		nonce := r.NewNonce()
		sets := pick(w.poolSets, w.frames[i])
		p.op(len(items)+len(sets), func() {
			w.lane.call("call.upload", func() {
				ids, err := r.UploadItems(nonce, items)
				if err != nil {
					p.fail("iteration %d upload: %v", i, err)
				}
				w.ids[i] = ids
			})
			w.lane.call("call.query", func() {
				sims, err := r.QueryMaxBatch(sets)
				if err != nil {
					p.fail("iteration %d query: %v", i, err)
				}
				w.sims[i] = sims
			})
		}, w.lane)
		p.count("calls.upload", 1)
		p.count("calls.query", 1)
		p.count("calls.query_sets", float64(len(sets)))
	}
}

func (w *cluster3) check(p *phase) {
	if w.wantIDs == nil {
		// A single-node server fed the same sequence.
		oracle := server.NewDefault()
		nonce := uint64(0)
		upload := func(items []server.UploadItem) []int64 {
			nonce++
			ids, _ := oracle.UploadItems(nonce, items)
			return ids
		}
		for _, ch := range w.warm {
			w.wantWarm = append(w.wantWarm, upload(ch))
		}
		for i, ch := range w.uploads {
			w.wantIDs = append(w.wantIDs, upload(ch))
			w.wantSims = append(w.wantSims, oracle.QueryMaxBatch(pick(w.poolSets, w.frames[i])))
		}
		w.wantStats = oracle.Stats()
	}
	if !reflect.DeepEqual(w.gotWarm, w.wantWarm) {
		p.fail("warm-up ids differ from the single-node oracle")
	}
	for i := range w.uploads {
		if w.ids[i] != nil && !slices.Equal(w.ids[i], w.wantIDs[i]) {
			p.fail("iteration %d: ids %v, oracle %v", i, w.ids[i], w.wantIDs[i])
		}
	}
	for f := range w.frames {
		if w.sims[f] != nil && !sameFloats(w.sims[f], w.wantSims[f]) {
			p.fail("query %d: sims %v, oracle %v", f, w.sims[f], w.wantSims[f])
		}
	}
	if got, err := w.stack.router.Stats(); err != nil || got != w.wantStats {
		p.fail("cluster stats %+v (err %v), oracle %+v", got, err, w.wantStats)
	}
}

func (w *cluster3) stop() {
	if w.stack != nil {
		w.stack.stop()
		w.stack = nil
	}
}

func (w *cluster3) walkInput() ([]*dataset.Image, []*features.BinarySet) {
	return w.sample, w.warmSets
}
