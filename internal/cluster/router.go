package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"bees/internal/blockstore"
	"bees/internal/client"
	"bees/internal/features"
	"bees/internal/index"
	"bees/internal/server"
	"bees/internal/telemetry"
	"bees/internal/wire"
)

// RouterOptions configures a cluster Router.
type RouterOptions struct {
	// Table is the static cluster membership.
	Table *Table
	// Replication is the per-shard replica count. Default 2, clamped to
	// the cluster size.
	Replication int
	// Client tunes the node-facing clients; Dial carries the transport
	// (netsim pipes in tests, TCP in production).
	Client client.Options
	// NonceWindow is how many recent upload nonces the router remembers
	// so an outbox replay reuses its original ID allocation. Default
	// 4096, matching the server-side dedup window.
	NonceWindow int
}

// Router is the cluster's upload/query front end — the role beesctl's
// plain Client plays against a single beesd. Uploads are split by item
// key across shards and fanned write-all to every shard replica
// (success needs at least one ack per shard; lagging replicas catch up
// via ShardSync). Queries read one live replica per shard, failing
// over to the next replica on transport errors. The router assigns
// image IDs from one dense global sequence, so the cluster's IDs —
// and, by the candidate-merge argument in DESIGN.md, its query answers
// and stats — are byte-identical to a single-node server fed the same
// workload.
//
// A deployment runs ONE router (or routers that never interleave): the
// ID sequence is bootstrapped from the cluster's max ID at startup and
// advanced locally, which is single-writer by construction.
type Router struct {
	opts  RouterOptions
	table *Table

	peerMu  sync.Mutex
	clients map[string]*client.Client

	nonceMu  sync.Mutex
	nonceRng *rand.Rand

	mu       sync.Mutex
	nextID   int64
	idsReady bool
	// nonceIDs remembers recent nonce → ID allocations (bounded FIFO),
	// recorded before the batch's first frame leaves, so a concurrent or
	// replayed batch re-sends the original IDs instead of allocating
	// fresh ones the replicas would refuse to reconcile.
	nonceIDs   map[uint64][]int64
	nonceOrder []uint64

	// queryFailovers counts ShardQuery frames that failed and moved
	// their shards to the next replica; uploadReplicaErrors counts
	// (shard, replica) upload deliveries that failed (the replica is
	// left to ShardSync).
	queryFailovers      *telemetry.Counter
	uploadReplicaErrors *telemetry.Counter
}

// NewRouter builds a router over the table.
func NewRouter(opts RouterOptions) (*Router, error) {
	if opts.Table == nil {
		return nil, errors.New("cluster: router needs a table")
	}
	if opts.Replication <= 0 {
		opts.Replication = DefaultReplication
	}
	if opts.Replication > len(opts.Table.nodes) {
		opts.Replication = len(opts.Table.nodes)
	}
	if opts.NonceWindow <= 0 {
		opts.NonceWindow = 4096
	}
	seed := opts.Client.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	return &Router{
		opts:     opts,
		table:    opts.Table,
		clients:  make(map[string]*client.Client),
		nonceRng: rand.New(rand.NewSource(seed)),
		nonceIDs: make(map[uint64][]int64),

		queryFailovers:      opts.Client.Telemetry.Counter("cluster.router.query.failovers"),
		uploadReplicaErrors: opts.Client.Telemetry.Counter("cluster.router.upload.replica_errors"),
	}, nil
}

// NewNonce returns a fresh non-zero nonce for UploadItems.
// Nonces are random, not sequential, for the same reason the client's
// are: the replicas' dedup windows outlive any one router process, so a
// restarted router drawing nonce 1, 2, ... would collide with its
// predecessor's uploads and get the old IDs replayed. Client.Seed fixes
// the stream for reproducible tests.
func (r *Router) NewNonce() uint64 {
	r.nonceMu.Lock()
	defer r.nonceMu.Unlock()
	for {
		if n := r.nonceRng.Uint64(); n != 0 {
			return n
		}
	}
}

// client returns (lazily building) the client for a node.
func (r *Router) client(name string) *client.Client {
	r.peerMu.Lock()
	defer r.peerMu.Unlock()
	if c, ok := r.clients[name]; ok {
		return c
	}
	opts := r.opts.Client
	opts.LazyDial = true
	c, err := client.DialOptions(name, opts)
	if err != nil {
		panic(fmt.Sprintf("cluster: router client %s: %v", name, err))
	}
	r.clients[name] = c
	return c
}

// Close releases the router's node clients.
func (r *Router) Close() error {
	r.peerMu.Lock()
	defer r.peerMu.Unlock()
	for _, c := range r.clients {
		c.Close()
	}
	r.clients = make(map[string]*client.Client)
	return nil
}

// shardStats reads every shard's counters from one live replica each
// (read-one with failover), in shard order.
func (r *Router) shardStats() ([]wire.ShardStat, error) {
	resps, err := r.queryShards(nil, 0)
	if err != nil {
		return nil, err
	}
	stats := make([]wire.ShardStat, r.table.NumShards())
	for _, resp := range resps {
		for _, st := range resp.Stats {
			stats[st.Shard] = st
		}
	}
	return stats, nil
}

// Stats sums per-shard counters into the single-node Stats shape. Each
// shard is read from exactly one replica, so replicated items are
// counted once.
func (r *Router) Stats() (server.Stats, error) {
	stats, err := r.shardStats()
	if err != nil {
		return server.Stats{}, err
	}
	var out server.Stats
	for _, st := range stats {
		out.Images += int(st.Images)
		out.BytesReceived += st.Bytes
	}
	return out, nil
}

// ensureNextID bootstraps the global ID sequence from the cluster's
// current maximum — a restarted router resumes allocating after every
// ID any shard has applied. Callers hold r.mu.
func (r *Router) ensureNextID() error {
	if r.idsReady {
		return nil
	}
	stats, err := r.shardStats()
	if err != nil {
		return err
	}
	var next int64
	for _, st := range stats {
		if st.NextID > next {
			next = st.NextID
		}
	}
	r.nextID = next
	r.idsReady = true
	return nil
}

// UploadItems stores one batch across the cluster exactly once per
// nonce: items are split by key across shards, IDs come off the global
// sequence in item order (matching what a single-node server would
// assign), and each shard's slice fans out write-all to its replicas —
// at least one replica must ack each shard or the whole batch fails
// (and can be replayed under the same nonce; both the router's nonce
// window and the replicas' dedup windows make the replay idempotent).
func (r *Router) UploadItems(nonce uint64, items []server.UploadItem) ([]int64, error) {
	if len(items) == 0 {
		return nil, nil
	}
	ids, err := r.reserveIDs(nonce, len(items))
	if err != nil {
		return nil, err
	}
	if err := r.fanOut(nonce, ids, items); err != nil {
		return nil, err
	}
	return ids, nil
}

// reserveIDs returns the IDs a nonce's batch is sent under. A nonce in
// the window gets its recorded IDs back: the replay is re-sent in full,
// so the replicas that already applied it dedup and the ones that missed
// it apply now. Otherwise a fresh range comes off the global sequence and
// is recorded before any frame leaves. Lookup, allocation and record are
// one critical section, so concurrent same-nonce calls, and a replay of a
// batch that failed after some shards acked, all send the same IDs.
func (r *Router) reserveIDs(nonce uint64, n int) ([]int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.nonceIDs[nonce]; ok {
		if len(prev) != n {
			return nil, fmt.Errorf("cluster: nonce %d replayed with %d items, first sent with %d", nonce, n, len(prev))
		}
		return append([]int64(nil), prev...), nil
	}
	if err := r.ensureNextID(); err != nil {
		return nil, err
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = r.nextID
		r.nextID++
	}
	if nonce != 0 {
		if len(r.nonceOrder) >= r.opts.NonceWindow {
			oldest := r.nonceOrder[0]
			r.nonceOrder = r.nonceOrder[1:]
			delete(r.nonceIDs, oldest)
		}
		r.nonceIDs[nonce] = append([]int64(nil), ids...)
		r.nonceOrder = append(r.nonceOrder, nonce)
	}
	return ids, nil
}

// shardSlice is one shard's portion of an upload batch.
type shardSlice struct {
	ids    []int64
	items  []server.UploadItem
	wire   []wire.ManifestItem
	blocks []wire.Block      // distinct, first-appearance order
	hashes []blockstore.Hash // blocks' hashes, the shard's block query
}

// fanOut delivers a batch: split by shard, then write-all to every
// shard's replicas. Every replica that acks must hold exactly the IDs it
// was sent; one answering others (it applied the nonce earlier under IDs
// the router no longer remembers) fails the batch rather than let the
// router return IDs the shard does not hold.
func (r *Router) fanOut(nonce uint64, ids []int64, items []server.UploadItem) error {
	slices := make(map[uint32]*shardSlice)
	var order []uint32
	for i := range items {
		shard := r.table.ShardOf(client.ItemKey(&items[i]))
		sl := slices[shard]
		if sl == nil {
			sl = &shardSlice{}
			slices[shard] = sl
			order = append(order, shard)
		}
		sl.ids = append(sl.ids, ids[i])
		sl.items = append(sl.items, items[i])
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, sl := range slices {
		sl.wire, sl.blocks = client.Manifests(sl.items, r.opts.Client.BlockSize)
		sl.hashes = make([]blockstore.Hash, len(sl.blocks))
		for i := range sl.blocks {
			sl.hashes[i] = sl.blocks[i].Hash
		}
	}

	// Write-all: every replica of every touched shard gets the shard's
	// full delta flow — query its store, send what it misses, commit
	// under the shard's IDs — so replicas converge to identical refcounts
	// no matter what each already held. The nodes are served
	// concurrently; one node still receives its frames in ascending shard
	// order over its one connection, so what a node sees does not depend
	// on scheduling and replays stay byte-for-byte comparable.
	type delivery struct {
		shard uint32
		node  string
		ids   []int64
		err   error
	}
	perNode := make(map[string][]*delivery)
	perShard := make(map[uint32][]*delivery, len(order))
	for _, shard := range order {
		for _, node := range r.table.Replicas(shard, r.opts.Replication) {
			d := &delivery{shard: shard, node: node}
			perNode[node] = append(perNode[node], d)
			perShard[shard] = append(perShard[shard], d)
		}
	}
	var wg sync.WaitGroup
	for node, ds := range perNode {
		wg.Add(1)
		go func(node string, ds []*delivery) {
			defer wg.Done()
			for _, d := range ds {
				d.ids, d.err = r.uploadReplica(node, nonce, d.shard, slices[d.shard])
			}
		}(node, ds)
	}
	wg.Wait()

	// At least one ack makes a shard durable; replicas that failed are
	// repaired later by ShardSync, not by failing the upload.
	for _, shard := range order {
		acked := 0
		var lastErr error
		for _, d := range perShard[shard] {
			if d.err != nil {
				r.uploadReplicaErrors.Inc()
				lastErr = d.err
				continue
			}
			if sent := slices[shard].ids; !equalIDs(d.ids, sent) {
				return fmt.Errorf("cluster: shard %d replica %s holds ids %v for nonce %d, router sent %v",
					shard, d.node, d.ids, nonce, sent)
			}
			acked++
		}
		if acked == 0 {
			return fmt.Errorf("cluster: shard %d: no replica reachable: %w", shard, lastErr)
		}
	}
	return nil
}

// uploadReplica runs the two-round delta flow against one replica.
func (r *Router) uploadReplica(node string, nonce uint64, shard uint32, sl *shardSlice) ([]int64, error) {
	c := r.client(node)
	q, err := c.ShardRoute(&wire.ShardRoute{Nonce: nonce, Shard: shard, Query: sl.hashes})
	if err != nil {
		return nil, err
	}
	var missing []wire.Block
	for i, b := range sl.blocks {
		if !q.Have[i] {
			missing = append(missing, b)
		}
	}
	resp, err := c.ShardRoute(&wire.ShardRoute{
		Nonce:  nonce,
		Shard:  shard,
		IDs:    sl.ids,
		Blocks: missing,
		Items:  sl.wire,
	})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// queryShards runs a ShardQuery for the given sets against every shard,
// reading each shard from one live replica: shards are grouped by their
// first untried replica, the group query is sent, and a node failure
// pushes its shards to their next replica until every shard answered or
// some shard ran out of replicas.
func (r *Router) queryShards(sets []*features.BinarySet, limit int) ([]*wire.ShardQueryResponse, error) {
	numShards := r.table.NumShards()
	replicaIdx := make([]int, numShards)
	pending := make([]uint32, numShards)
	for s := range pending {
		pending[s] = uint32(s)
	}
	var out []*wire.ShardQueryResponse
	for len(pending) > 0 {
		// Group the pending shards by their current replica choice.
		groups := make(map[string][]uint32)
		for _, s := range pending {
			reps := r.table.Replicas(s, r.opts.Replication)
			if replicaIdx[s] >= len(reps) {
				return nil, fmt.Errorf("cluster: shard %d: all replicas failed", s)
			}
			node := reps[replicaIdx[s]]
			groups[node] = append(groups[node], s)
		}
		nodes := make([]string, 0, len(groups))
		for n := range groups {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		// One frame per node, all in flight at once; answers and failures
		// are then taken in sorted node order, so the merge input and the
		// failover order do not depend on which node answered first.
		resps := make([]*wire.ShardQueryResponse, len(nodes))
		errs := make([]error, len(nodes))
		var wg sync.WaitGroup
		for i, node := range nodes {
			wg.Add(1)
			go func(i int, node string) {
				defer wg.Done()
				resps[i], errs[i] = r.client(node).ShardQuery(&wire.ShardQuery{
					Shards: groups[node],
					Limit:  uint32(limit),
					Sets:   sets,
				})
			}(i, node)
		}
		wg.Wait()
		pending = pending[:0]
		for i, node := range nodes {
			if errs[i] != nil {
				// Fail the whole group over to each shard's next replica.
				r.queryFailovers.Inc()
				for _, s := range groups[node] {
					replicaIdx[s]++
					pending = append(pending, s)
				}
				continue
			}
			out = append(out, resps[i])
		}
	}
	return out, nil
}

// QueryMaxBatch answers the CBRD query for a whole batch: one maximum
// stored similarity per set, bit-identical to a single-node server
// holding the union of all shards. Each shard's top-limit candidate
// list (votes and exact similarities, zero-sim entries included) is a
// superset of the global top-limit ranking's restriction to that
// shard, so merging the lists, re-sorting by (votes desc, ID asc) and
// truncating to the limit reconstructs the oracle's candidate set
// exactly; the answer is the best positive similarity among them.
func (r *Router) QueryMaxBatch(sets []*features.BinarySet) ([]float64, error) {
	if len(sets) == 0 {
		return nil, nil
	}
	limit := index.DefaultConfig().CandidateLimit
	resps, err := r.queryShards(sets, limit)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(sets))
	for si := range sets {
		var cands []wire.ShardCandidate
		for _, resp := range resps {
			cands = append(cands, resp.PerSet[si]...)
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].Votes != cands[j].Votes {
				return cands[i].Votes > cands[j].Votes
			}
			return cands[i].ID < cands[j].ID
		})
		if len(cands) > limit {
			cands = cands[:limit]
		}
		best := 0.0
		for _, c := range cands {
			if c.Sim > best {
				best = c.Sim
			}
		}
		out[si] = best
	}
	return out, nil
}
