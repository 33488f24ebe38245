package cluster_test

import (
	"reflect"
	"strings"
	"testing"

	"bees/internal/blockstore"
	"bees/internal/client"
	"bees/internal/cluster"
	"bees/internal/cluster/testcluster"
	"bees/internal/features"
	"bees/internal/wire"
)

func TestRouterValidation(t *testing.T) {
	if _, err := cluster.NewRouter(cluster.RouterOptions{}); err == nil {
		t.Fatal("router without a table accepted")
	}
	if _, err := cluster.NewNode(cluster.NodeConfig{}); err == nil {
		t.Fatal("node without a table accepted")
	}
	tb, err := cluster.NewTable([]string{"a", "b"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.NewNode(cluster.NodeConfig{Self: "zz", Table: tb}); err == nil {
		t.Fatal("node outside the table accepted")
	}
	// Replication defaults and clamps: R=0 → default, R=99 → cluster size.
	n, err := cluster.NewNode(cluster.NodeConfig{Self: "a", Table: tb, Replication: 99})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Shards()); got != 4 {
		t.Fatalf("R=cluster-size node owns %d of 4 shards", got)
	}
	n0, err := cluster.NewNode(cluster.NodeConfig{Self: "a", Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	if n0.ShardServer(1<<20) != nil {
		t.Fatal("ShardServer returned a server for an absurd shard")
	}
}

func TestRouterSmallSurface(t *testing.T) {
	tc, err := testcluster.Start(clusterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	r := tc.Router

	if n1, n2 := r.NewNonce(), r.NewNonce(); n1 == 0 || n1 == n2 {
		t.Fatalf("nonces not fresh: %d, %d", n1, n2)
	}
	if ids, err := r.UploadItems(7, nil); err != nil || ids != nil {
		t.Fatalf("empty upload: %v, %v", ids, err)
	}
	if sims, err := r.QueryMaxBatch(nil); err != nil || sims != nil {
		t.Fatalf("empty query: %v, %v", sims, err)
	}
	batches, _ := clusterWorkload()
	if ids, err := r.UploadItems(r.NewNonce(), batches[0][:2]); err != nil || len(ids) != 2 {
		t.Fatalf("UploadItems: %v, %v", ids, err)
	}
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Images != 2 {
		t.Fatalf("stats after UploadItems: %+v", st)
	}
}

// The router's nonce window is bounded: old entries are evicted FIFO.
// A replay inside the window re-sends the original IDs; one from beyond
// it gets fresh IDs from the router, but the shard replicas still hold
// the nonce under the original ones — the router refuses to return IDs
// the shards do not hold, so the late replay fails loudly and changes
// nothing.
func TestRouterNonceWindowEviction(t *testing.T) {
	tc, err := testcluster.Start(clusterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	opts := fastClient()
	opts.Dial = tc.DialFunc()
	r, err := cluster.NewRouter(cluster.RouterOptions{
		Table:       tc.Table(),
		Replication: 2,
		NonceWindow: 1,
		Client:      opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	batches, _ := clusterWorkload()
	if _, err := r.UploadItems(1, batches[0]); err != nil {
		t.Fatal(err)
	}
	ids2, err := r.UploadItems(2, batches[1]) // evicts nonce 1 from the router's window
	if err != nil {
		t.Fatal(err)
	}
	if again, err := r.UploadItems(2, batches[1]); err != nil || !reflect.DeepEqual(again, ids2) {
		t.Fatalf("in-window replay: %v, %v; want the original %v", again, err, ids2)
	}
	before, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := r.UploadItems(1, batches[0]); err == nil || !strings.Contains(err.Error(), "router sent") {
		t.Fatalf("replay past the window returned %v, %v; want a replica-ID mismatch error", ids, err)
	}
	if after, err := r.Stats(); err != nil || after != before {
		t.Fatalf("late replay changed the cluster: %+v -> %+v (%v)", before, after, err)
	}
}

// Malformed shard frames answer with errors, not crashes or silent
// acceptance: a block whose data does not match its hash, and a commit
// whose metadata disagrees with its manifest.
func TestClusterRejectsBadFrames(t *testing.T) {
	tc, err := testcluster.Start(clusterConfig(3)) // R=3: every node owns every shard
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	opts := fastClient()
	opts.Dial = tc.DialFunc()
	opts.LazyDial = true
	c, err := client.DialOptions("n1", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	blob := blockstore.SynthPayload(7, 600)
	m := blockstore.ManifestOf(blob, clusterBlockSize)
	if _, err := c.ShardRoute(&wire.ShardRoute{
		Shard:  0,
		Blocks: []wire.Block{{Hash: m.Hashes[0], Data: []byte("not the block")}},
	}); err == nil {
		t.Fatal("corrupt block accepted")
	}

	parts := blockstore.Split(blob, clusterBlockSize)
	var put []wire.Block
	for i, h := range m.Hashes {
		put = append(put, wire.Block{Hash: h, Data: parts[i]})
	}
	set := &features.BinarySet{Descriptors: []features.Descriptor{{1, 2, 3, 4}}}
	bad := wire.ManifestItem{
		Set:        set,
		TotalBytes: 10, // impossible for a 3-block manifest
		BlockSize:  uint32(m.BlockSize),
		Hashes:     m.Hashes,
	}
	if _, err := c.ShardRoute(&wire.ShardRoute{
		Nonce: 5, Shard: 0, IDs: []int64{0}, Blocks: put, Items: []wire.ManifestItem{bad},
	}); err == nil {
		t.Fatal("manifest with inconsistent byte count accepted")
	}
	// A commit naming a block nobody staged is refused whole.
	missing := wire.ManifestItem{
		Set:        set,
		TotalBytes: int64(len(blob)),
		BlockSize:  uint32(m.BlockSize),
		Hashes:     append([]blockstore.Hash(nil), blockstore.ManifestOf([]byte("never staged"), clusterBlockSize).Hashes...),
	}
	missing.TotalBytes = int64(len("never staged"))
	if _, err := c.ShardRoute(&wire.ShardRoute{
		Nonce: 6, Shard: 0, IDs: []int64{0}, Items: []wire.ManifestItem{missing},
	}); err == nil {
		t.Fatal("commit naming an unstaged block accepted")
	}
	// The shard applied nothing.
	if st := tc.Node("n1").ShardServer(0).Stats(); st.Images != 0 {
		t.Fatalf("rejected commit left state behind: %+v", st)
	}
}
