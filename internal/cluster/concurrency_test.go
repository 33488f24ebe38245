package cluster_test

import (
	"bytes"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"bees/internal/client"
	"bees/internal/cluster"
	"bees/internal/cluster/testcluster"
	"bees/internal/features"
	"bees/internal/server"
	"bees/internal/telemetry"
	"bees/internal/wire"
)

// frameLog records, per node, every byte the router writes to it over
// the pipe network, so a test can replay exactly which frames a node
// received and in which order.
type frameLog struct {
	mu     sync.Mutex
	toNode map[string]*bytes.Buffer
}

type loggedConn struct {
	net.Conn
	log  *frameLog
	node string
}

func (c loggedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.log.mu.Lock()
	c.log.toNode[c.node].Write(b[:n])
	c.log.mu.Unlock()
	return n, err
}

func (l *frameLog) dialer(inner client.DialFunc) client.DialFunc {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := inner(addr, timeout)
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		if l.toNode[addr] == nil {
			l.toNode[addr] = new(bytes.Buffer)
		}
		l.mu.Unlock()
		return loggedConn{conn, l, addr}, nil
	}
}

// take decodes and clears what a node has received since the last call.
func (l *frameLog) take(t *testing.T, node string) []any {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := l.toNode[node]
	var frames []any
	for buf != nil && buf.Len() > 0 {
		msg, err := wire.ReadFrame(buf)
		if err != nil {
			t.Fatalf("node %s received an undecodable frame: %v", node, err)
		}
		frames = append(frames, msg)
	}
	return frames
}

// TestFanOutKeepsPerNodeShardOrder pins what concurrent upload fan-out
// must not change: the nodes are served at the same time, but each node
// still receives, over its one connection, the delta flow (block query,
// then blocks + commit) of every shard it replicates in ascending shard
// order — the property write-counted chaos triggers rely on.
func TestFanOutKeepsPerNodeShardOrder(t *testing.T) {
	const replication = 2
	tc, err := testcluster.Start(clusterConfig(replication))
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	log := &frameLog{toNode: make(map[string]*bytes.Buffer)}
	opts := fastClient()
	opts.Dial = log.dialer(tc.DialFunc())
	r, err := cluster.NewRouter(cluster.RouterOptions{Table: tc.Table(), Replication: replication, Client: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	batches, _ := clusterWorkload()
	for bi, batch := range batches {
		nonce := uint64(bi + 1)
		if _, err := r.UploadItems(nonce, batch); err != nil {
			t.Fatal(err)
		}
		touched := make(map[uint32]bool)
		for i := range batch {
			touched[tc.Table().ShardOf(client.ItemKey(&batch[i]))] = true
		}
		busy := 0
		for _, name := range []string{"n1", "n2", "n3"} {
			var want []uint32 // per touched shard the node replicates: query frame, commit frame
			for _, s := range tc.Node(name).Shards() {
				if touched[s] {
					want = append(want, s, s)
				}
			}
			var got []uint32
			for i, msg := range log.take(t, name) {
				m, ok := msg.(*wire.ShardRoute)
				if !ok {
					continue // Hello, and the first batch's ID bootstrap ShardQuery
				}
				if m.Nonce != nonce {
					t.Fatalf("node %s frame %d carries nonce %d during batch %d", name, i, m.Nonce, nonce)
				}
				if commit := len(got)%2 == 1; commit != (len(m.Items) > 0) {
					t.Fatalf("node %s frame %d: query and commit frames out of step: %+v", name, i, m)
				}
				got = append(got, m.Shard)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d: node %s received shard frames %v, want ascending %v", bi, name, got, want)
			}
			if len(want) > 2 {
				busy++
			}
		}
		if busy < 2 {
			t.Fatalf("batch %d: fewer than two nodes received several shards; the order went untested", bi)
		}
	}
}

// TestRouterSharedByGoroutines drives one Router from four goroutines
// mixing uploads and queries (under -race in tier2). Whatever the
// interleaving, upload IDs are dense and unique, and once quiescent the
// cluster's stats and query answers equal a single-node oracle fed the
// same batches in ID order.
func TestRouterSharedByGoroutines(t *testing.T) {
	tc, err := testcluster.Start(clusterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	_, queries := clusterWorkload()

	const workers, perWorker, batchSize = 4, 5, 4
	type upload struct {
		nonce uint64
		items []server.UploadItem
		ids   []int64
	}
	uploads := make([][]upload, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for b := 0; b < perWorker; b++ {
				items, _ := crowdItems(rng, batchSize, 4)
				for i := range items {
					items[i].Meta.Lon = float64(w*perWorker + b) // distinct content per batch
				}
				nonce := tc.Router.NewNonce()
				ids, err := tc.Router.UploadItems(nonce, items)
				if err != nil {
					t.Errorf("worker %d batch %d: %v", w, b, err)
					return
				}
				uploads[w] = append(uploads[w], upload{nonce, items, ids})
				sims, err := tc.Router.QueryMaxBatch([]*features.BinarySet{items[0].Set, queries[b]})
				if err != nil {
					t.Errorf("worker %d query %d: %v", w, b, err)
					return
				}
				if sims[0] <= 0 {
					t.Errorf("worker %d batch %d: an acked upload is not queryable (sim %v)", w, b, sims[0])
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var all []upload
	for _, us := range uploads {
		all = append(all, us...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ids[0] < all[j].ids[0] })
	oracle := server.NewWithConfig(server.Config{BlockSize: clusterBlockSize})
	next := int64(0)
	for _, u := range all {
		for _, id := range u.ids {
			if id != next {
				t.Fatalf("IDs not dense and unique: got %d where %d was due (batch ids %v)", id, next, u.ids)
			}
			next++
		}
		want, err := oracle.UploadItems(u.nonce, u.items)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(u.ids, want) {
			t.Fatalf("cluster assigned %v, oracle fed in ID order assigned %v", u.ids, want)
		}
	}
	if next != workers*perWorker*batchSize {
		t.Fatalf("%d IDs allocated, want %d", next, workers*perWorker*batchSize)
	}
	for _, u := range all {
		queries = append(queries, u.items[1].Set)
	}
	compareToOracle(t, oracle, tc, queries)
	checkReplicaConvergence(t, tc, 2)
}

// TestQueryWaveFailsOverSeveredNode cuts one node's link in the middle
// of its ShardQuery frame — header delivered, payload not — while the
// other nodes of the same concurrent wave answer normally. The wave
// must still complete: the severed node's shards fail over to their
// next replica and the merged answer equals the oracle's floats.
func TestQueryWaveFailsOverSeveredNode(t *testing.T) {
	for _, victim := range []string{"n1", "n2", "n3"} {
		t.Run(victim, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			cfg := clusterConfig(2)
			cfg.Client.Telemetry = reg
			tc, err := testcluster.Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tc.Close()
			oracle := server.NewWithConfig(server.Config{BlockSize: clusterBlockSize})
			batches, queries := clusterWorkload()
			for bi, batch := range batches {
				uploadBoth(t, oracle, tc, uint64(bi+1), batch)
			}
			primary := false
			for s := 0; s < tc.Table().NumShards(); s++ {
				primary = primary || tc.Table().Replicas(uint32(s), 2)[0] == victim
			}
			if !primary {
				t.Skipf("%s is no shard's first replica; a query wave never reaches it", victim)
			}
			failovers := reg.Counter("cluster.router.query.failovers")
			before := failovers.Value()

			// One more write crosses the victim's link: the frame header.
			if err := tc.KillAfterWrites(victim, 1); err != nil {
				t.Fatal(err)
			}
			got, err := tc.Router.QueryMaxBatch(queries)
			if err != nil {
				t.Fatalf("query wave with %s severed mid-frame: %v", victim, err)
			}
			if want := oracle.QueryMaxBatch(queries); !reflect.DeepEqual(got, want) {
				t.Fatalf("failed-over wave answered %v, oracle %v", got, want)
			}
			if !tc.Partition(victim).Down() {
				t.Fatalf("%s was never severed — the wave did not cross its link", victim)
			}
			if failovers.Value() == before {
				t.Fatalf("%s severed mid-frame but cluster.router.query.failovers did not move", victim)
			}
			compareToOracle(t, oracle, tc, queries) // and the degraded cluster keeps answering
		})
	}
}

// TestRouterSameNonceConcurrentCalls races two uploads of one batch
// under one nonce through one router, batch after batch. Both calls must
// return identical IDs — one allocation per nonce, no gap left in the
// dense sequence — and the cluster must equal a single-node oracle fed
// each batch once.
func TestRouterSameNonceConcurrentCalls(t *testing.T) {
	tc, err := testcluster.Start(clusterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	oracle := server.NewWithConfig(server.Config{BlockSize: clusterBlockSize})
	batches, queries := clusterWorkload()
	for bi, batch := range batches {
		nonce := uint64(100 + bi)
		var ids [2][]int64
		var errs [2]error
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range ids {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				ids[g], errs[g] = tc.Router.UploadItems(nonce, batch)
			}(g)
		}
		close(start)
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("batch %d call %d: %v", bi, g, err)
			}
		}
		if !reflect.DeepEqual(ids[0], ids[1]) {
			t.Fatalf("batch %d: one nonce answered %v and %v", bi, ids[0], ids[1])
		}
		want, err := oracle.UploadItems(nonce, batch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids[0], want) {
			t.Fatalf("batch %d: cluster assigned %v, oracle %v", bi, ids[0], want)
		}
	}
	compareToOracle(t, oracle, tc, queries)
	checkReplicaConvergence(t, tc, 2)
}
