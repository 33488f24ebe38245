package cluster_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"bees/internal/blockstore"
	"bees/internal/client"
	"bees/internal/cluster"
	"bees/internal/cluster/testcluster"
	"bees/internal/features"
	"bees/internal/server"
	"bees/internal/wire"
)

// clusterBlockSize keeps cluster uploads multi-block with small blobs so
// the delta path (query → missing blocks → commit) is exercised.
const clusterBlockSize = 256

func fastClient() client.Options {
	return client.Options{
		DialTimeout:        time.Second,
		RequestTimeout:     2 * time.Second,
		MaxRetries:         2,
		BackoffBase:        time.Millisecond,
		BackoffMax:         5 * time.Millisecond,
		BreakerCooldown:    time.Millisecond,
		BreakerCooldownMax: 5 * time.Millisecond,
		Seed:               1,
		BlockSize:          clusterBlockSize,
	}
}

func clusterConfig(replication int) testcluster.Config {
	return testcluster.Config{
		Nodes:       []string{"n1", "n2", "n3"},
		Shards:      8,
		Replication: replication,
		Client:      fastClient(),
	}
}

// clusterWorkload is a deterministic batched upload workload plus query
// sets: exact re-queries of uploaded images, perturbed near-duplicates,
// and novel sets that should match nothing.
func clusterWorkload() (batches [][]server.UploadItem, queries []*features.BinarySet) {
	rng := rand.New(rand.NewSource(4242))
	mkSet := func(n int) *features.BinarySet {
		set := &features.BinarySet{Descriptors: make([]features.Descriptor, n)}
		for j := range set.Descriptors {
			for w := range set.Descriptors[j] {
				set.Descriptors[j][w] = rng.Uint64()
			}
		}
		return set
	}
	var all []server.UploadItem
	for b := 0; b < 4; b++ {
		batch := make([]server.UploadItem, 6)
		for i := range batch {
			seed := b*6 + i
			batch[i] = server.UploadItem{
				Set: mkSet(3 + rng.Intn(3)),
				Meta: server.UploadMeta{
					GroupID: int64(seed % 5),
					Lat:     float64(seed) / 3,
					Lon:     -float64(seed) / 7,
					Bytes:   200 + rng.Intn(900),
					Gain:    float64(seed%7) / 7,
				},
			}
		}
		all = append(all, batch...)
		batches = append(batches, batch)
	}
	for i := 0; i < len(all); i += 3 {
		// Exact re-query: similarity 1 against the stored copy.
		queries = append(queries, all[i].Set)
		// Near-duplicate: same descriptors with one replaced.
		d := append([]features.Descriptor(nil), all[i].Set.Descriptors...)
		d[0] = features.Descriptor{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		queries = append(queries, &features.BinarySet{Descriptors: d})
	}
	for i := 0; i < 4; i++ {
		queries = append(queries, mkSet(4)) // novel
	}
	return batches, queries
}

// uploadBoth feeds one batch to the oracle and the cluster under the
// same nonce and requires identical ID assignment.
func uploadBoth(t *testing.T, oracle *server.Server, tc *testcluster.Cluster, nonce uint64, batch []server.UploadItem) []int64 {
	t.Helper()
	want, err := oracle.UploadItems(nonce, batch)
	if err != nil {
		t.Fatalf("oracle upload nonce %d: %v", nonce, err)
	}
	got, err := tc.Router.UploadItems(nonce, batch)
	if err != nil {
		t.Fatalf("cluster upload nonce %d: %v", nonce, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("nonce %d: cluster IDs %v, single-node oracle assigned %v", nonce, got, want)
	}
	return got
}

// compareToOracle asserts the cluster's externally visible state — stats
// and batched query answers — is byte-identical to the single-node
// oracle's.
func compareToOracle(t *testing.T, oracle *server.Server, tc *testcluster.Cluster, queries []*features.BinarySet) {
	t.Helper()
	wantStats := oracle.Stats()
	gotStats, err := tc.Router.Stats()
	if err != nil {
		t.Fatalf("cluster stats: %v", err)
	}
	if gotStats != wantStats {
		t.Fatalf("cluster stats %+v, oracle %+v", gotStats, wantStats)
	}
	wantSims := oracle.QueryMaxBatch(queries)
	gotSims, err := tc.Router.QueryMaxBatch(queries)
	if err != nil {
		t.Fatalf("cluster query: %v", err)
	}
	for i := range wantSims {
		if gotSims[i] != wantSims[i] {
			t.Fatalf("query %d: cluster sim %v, oracle sim %v", i, gotSims[i], wantSims[i])
		}
	}
}

// checkReplicaConvergence asserts every replica of every shard holds
// identical block refcounts (and that at least one shard is non-empty).
func checkReplicaConvergence(t *testing.T, tc *testcluster.Cluster, replication int) {
	t.Helper()
	nonEmpty := 0
	for s := 0; s < tc.Table().NumShards(); s++ {
		shard := uint32(s)
		var baseName string
		var base map[blockstore.Hash]int64
		for _, name := range tc.Table().Replicas(shard, replication) {
			node := tc.Node(name)
			if node == nil {
				t.Fatalf("shard %d replica %s is dead", s, name)
			}
			refs := node.ShardServer(shard).Blocks().RefCounts()
			if base == nil {
				baseName, base = name, refs
				continue
			}
			if !reflect.DeepEqual(refs, base) {
				t.Fatalf("shard %d: replica %s refcounts %v, replica %s has %v", s, name, refs, baseName, base)
			}
		}
		if len(base) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every shard is empty — workload never reached the cluster")
	}
}

// TestClusterDifferential is the tentpole proof: the same workload
// through a 3-node cluster and through one plain beesd server yields
// byte-identical stats, upload IDs, and batched query answers, at every
// replication factor.
func TestClusterDifferential(t *testing.T) {
	for _, replication := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("replication=%d", replication), func(t *testing.T) {
			tc, err := testcluster.Start(clusterConfig(replication))
			if err != nil {
				t.Fatal(err)
			}
			defer tc.Close()
			oracle := server.NewDefault()

			batches, queries := clusterWorkload()
			var firstIDs []int64
			for bi, batch := range batches {
				ids := uploadBoth(t, oracle, tc, uint64(bi+1), batch)
				if bi == 0 {
					firstIDs = ids
				}
			}

			// A replayed nonce returns the original IDs on both sides and
			// never double-counts.
			statsBefore, err := tc.Router.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if ids := uploadBoth(t, oracle, tc, 1, batches[0]); !reflect.DeepEqual(ids, firstIDs) {
				t.Fatalf("replayed nonce 1 assigned %v, original %v", ids, firstIDs)
			}
			statsAfter, err := tc.Router.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if statsAfter != statsBefore {
				t.Fatalf("nonce replay mutated cluster state: %+v -> %+v", statsBefore, statsAfter)
			}

			compareToOracle(t, oracle, tc, queries)
			checkReplicaConvergence(t, tc, replication)
		})
	}
}

// TestClusterRouterRestart proves the single-writer ID bootstrap: a
// fresh router over a populated cluster resumes the global sequence
// where the old one stopped, keeping IDs dense and collision-free.
func TestClusterRouterRestart(t *testing.T) {
	tc, err := testcluster.Start(clusterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	batches, _ := clusterWorkload()
	ids1, err := tc.Router.UploadItems(1, batches[0])
	if err != nil {
		t.Fatal(err)
	}

	opts := fastClient()
	opts.Dial = tc.DialFunc()
	fresh, err := cluster.NewRouter(cluster.RouterOptions{
		Table:       tc.Table(),
		Replication: 2,
		Client:      opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	ids2, err := fresh.UploadItems(2, batches[1])
	if err != nil {
		t.Fatal(err)
	}
	if want := ids1[len(ids1)-1] + 1; ids2[0] != want {
		t.Fatalf("restarted router allocated from %d, want %d (dense continuation)", ids2[0], want)
	}
}

// TestClusterRefusesUnownedShards sends shard frames to the wrong node
// directly. Routers send every frame only to the shard's owners, from
// the same placement table, so a node relays nothing: an unowned
// ShardRoute — with or without the retired forwarded flag — ShardQuery
// or ShardSync is refused with the same ownership error, and nothing is
// staged anywhere.
func TestClusterRefusesUnownedShards(t *testing.T) {
	const replication = 1 // with R=1 each shard has exactly one owner
	tc, err := testcluster.Start(clusterConfig(replication))
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	// Find a shard n1 does NOT own.
	var shard uint32
	found := false
	for s := 0; s < tc.Table().NumShards() && !found; s++ {
		if tc.Table().Replicas(uint32(s), replication)[0] != "n1" {
			shard, found = uint32(s), true
		}
	}
	if !found {
		t.Fatal("n1 owns every shard; cannot test the refusal")
	}

	opts := fastClient()
	opts.Dial = tc.DialFunc()
	opts.LazyDial = true
	c, err := client.DialOptions("n1", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	blob := blockstore.SynthPayload(99, 700)
	m := blockstore.ManifestOf(blob, clusterBlockSize)
	blocks := blockstore.Split(blob, clusterBlockSize)
	refused := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("unowned %s was accepted", what)
		}
		if !strings.Contains(err.Error(), "does not own shard") {
			t.Fatalf("unowned %s failed with %v, want the ownership refusal", what, err)
		}
	}
	for _, flags := range []uint32{0, wire.ShardRouteForwarded} {
		_, err := c.ShardRoute(&wire.ShardRoute{Shard: shard, Flags: flags, Query: m.Hashes,
			Blocks: []wire.Block{{Hash: m.Hashes[0], Data: blocks[0]}}})
		refused(fmt.Sprintf("ShardRoute (flags %d)", flags), err)
	}
	_, err = c.ShardQuery(&wire.ShardQuery{Shards: []uint32{shard}, Limit: 4})
	refused("ShardQuery", err)
	_, err = c.ShardSync(shard)
	refused("ShardSync", err)

	// The owner never saw the refused frames' block.
	owner := tc.Node(tc.Table().Replicas(shard, replication)[0]).ShardServer(shard)
	if owner.Blocks().Has(m.Hashes[0]) {
		t.Fatal("a refused ShardRoute staged its block on the owner")
	}
}

// TestClusterChaosKillReplicaMidBatch is the chaos headline: a replica
// dies mid-batch (its link severs after a fixed number of writes), the
// router fails over to the surviving replica and the upload succeeds,
// more traffic flows while the node is down, and the healed node
// catches up over ShardSync. The final state — per-shard refcounts on
// every replica, stats, query answers — is identical to a fault-free
// twin run and to the single-node oracle.
func TestClusterChaosKillReplicaMidBatch(t *testing.T) {
	const replication = 2
	tc, err := testcluster.Start(clusterConfig(replication))
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	oracle := server.NewDefault()

	batches, queries := clusterWorkload()

	// Two healthy batches.
	uploadBoth(t, oracle, tc, 1, batches[0])
	uploadBoth(t, oracle, tc, 2, batches[1])

	// Arm the guillotine: n2's link severs after 5 more successful
	// writes — mid-way through the next batch's fan-out.
	if err := tc.KillAfterWrites("n2", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.UploadItems(3, batches[2]); err != nil {
		t.Fatal(err)
	}
	ids, err := tc.Router.UploadItems(3, batches[2])
	if err != nil {
		t.Fatalf("upload with replica dying mid-batch: %v", err)
	}
	wantIDs, _ := oracle.UploadItems(3, batches[2]) // dedup replay: original IDs
	if !reflect.DeepEqual(ids, wantIDs) {
		t.Fatalf("failover batch assigned %v, oracle assigned %v", ids, wantIDs)
	}
	if !tc.Partition("n2").Down() {
		t.Fatal("write-counted sever never fired — the batch did not cross n2's link")
	}
	// Finish the kill: stop the process so restart rebuilds from scratch.
	if err := tc.Kill("n2"); err != nil {
		t.Fatal(err)
	}

	// A batch and the full query load against the degraded cluster.
	uploadBoth(t, oracle, tc, 4, batches[3])
	compareToOracle(t, oracle, tc, queries)

	// Heal: n2 restarts empty and pulls every owned shard from the
	// surviving replicas via ShardSync.
	if err := tc.Restart("n2"); err != nil {
		t.Fatalf("restart n2: %v", err)
	}
	checkReplicaConvergence(t, tc, replication)
	compareToOracle(t, oracle, tc, queries)

	// The caught-up replica also re-answers a replayed nonce with the
	// original IDs: the ShardSync stream carried the dedup window.
	for s := 0; s < tc.Table().NumShards(); s++ {
		shard := uint32(s)
		reps := tc.Table().Replicas(shard, replication)
		restored := tc.Node("n2").ShardServer(shard)
		if restored == nil {
			continue
		}
		var survivor *server.Server
		for _, name := range reps {
			if name != "n2" {
				survivor = tc.Node(name).ShardServer(shard)
			}
		}
		if survivor == nil {
			continue
		}
		want := survivor.DedupEntries()
		got := restored.DedupEntries()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d: restored dedup window %v, survivor has %v", s, got, want)
		}
	}
}

// TestClusterLoneShardLoss documents the R=1 failure mode: killing the
// only owner of a shard makes uploads touching it fail (no silent
// loss), and a restart cannot catch up — there is no replica to pull
// from.
func TestClusterLoneShardLoss(t *testing.T) {
	tc, err := testcluster.Start(clusterConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	batches, _ := clusterWorkload()
	if _, err := tc.Router.UploadItems(1, batches[0]); err != nil {
		t.Fatal(err)
	}
	if err := tc.Kill("n1"); err != nil {
		t.Fatal(err)
	}
	// Some batch will hit an n1-owned shard; with no replica the upload
	// must fail loudly.
	var uploadErr error
	for bi, batch := range batches[1:] {
		if _, err := tc.Router.UploadItems(uint64(bi+2), batch); err != nil {
			uploadErr = err
			break
		}
	}
	if uploadErr == nil {
		t.Fatal("uploads kept succeeding with an unreplicated shard owner dead")
	}
	if err := tc.Restart("n1"); err == nil {
		t.Fatal("restart of an unreplicated node claimed to catch up from nowhere")
	}
}

// TestRouterReplayAfterPartialFailure cuts every replica of one shard
// while another shard of the same batch acks on the remaining node, then
// heals and replays the batch under its nonce. The acked shard dedups
// the replay and keeps the IDs of the first attempt, so the router must
// re-send exactly those: the returned IDs are the ones every shard
// server holds, and the sequence stays dense for the next batch.
func TestRouterReplayAfterPartialFailure(t *testing.T) {
	const replication = 2
	tc, err := testcluster.Start(clusterConfig(replication))
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	oracle := server.NewDefault()
	batches, queries := clusterWorkload()
	// The first batch bootstraps the router's ID sequence with every node up.
	uploadBoth(t, oracle, tc, 1, batches[0])

	batch := batches[1]
	shardOf := func(i int) uint32 { return tc.Table().ShardOf(client.ItemKey(&batch[i])) }
	var touched []uint32
	for i := range batch {
		if s := shardOf(i); !containsShard(touched, s) {
			touched = append(touched, s)
		}
	}
	// Find a touched shard to cut whose complement node also replicates
	// another touched shard: that shard acks while the cut one fails.
	var cut []string
	var live string
	var acked uint32
	for _, s := range touched {
		reps := tc.Table().Replicas(s, replication)
		for _, n := range []string{"n1", "n2", "n3"} {
			if n == reps[0] || n == reps[1] {
				continue
			}
			for _, s2 := range touched {
				if s2 != s && containsNode(tc.Table().Replicas(s2, replication), n) {
					cut, live, acked = reps, n, s2
				}
			}
		}
		if live != "" {
			break
		}
	}
	if live == "" {
		t.Fatal("workload has no shard pair to split across the cut")
	}
	for _, n := range cut {
		tc.Partition(n).Sever()
	}
	if _, err := tc.Router.UploadItems(2, batch); err == nil {
		t.Fatalf("upload succeeded with both replicas of a shard (%v) cut", cut)
	}
	if tc.Node(live).ShardServer(acked).Stats().Images == 0 {
		t.Fatalf("shard %d on %s never acked — the partial failure was not partial", acked, live)
	}
	for _, n := range cut {
		tc.Partition(n).Heal()
	}

	ids, err := tc.Router.UploadItems(2, batch)
	if err != nil {
		t.Fatalf("healed replay: %v", err)
	}
	want, err := oracle.UploadItems(2, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("replay returned %v, oracle assigned %v", ids, want)
	}
	for i, id := range ids {
		for _, n := range tc.Table().Replicas(shardOf(i), replication) {
			res := tc.Node(n).ShardServer(shardOf(i)).QueryTopK(batch[i].Set, 1)
			if len(res) == 0 || int64(res[0].ID) != id || res[0].Similarity != 1 {
				t.Fatalf("item %d: router returned id %d, shard %d on %s answers %+v", i, id, shardOf(i), n, res)
			}
		}
	}
	// Dense: the next batch continues right where the oracle does.
	uploadBoth(t, oracle, tc, 3, batches[2])
	compareToOracle(t, oracle, tc, queries)
	checkReplicaConvergence(t, tc, replication)
}

func containsShard(shards []uint32, s uint32) bool {
	for _, x := range shards {
		if x == s {
			return true
		}
	}
	return false
}

func containsNode(nodes []string, n string) bool {
	for _, x := range nodes {
		if x == n {
			return true
		}
	}
	return false
}
