package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"bees/internal/client"
	"bees/internal/par"
	"bees/internal/server"
	"bees/internal/telemetry"
	"bees/internal/wire"
)

// NodeConfig configures one cluster node.
type NodeConfig struct {
	// Self is this node's name in the table (its dialable address).
	Self string
	// Table is the static cluster membership.
	Table *Table
	// Replication is the per-shard replica count. Default 2, clamped to
	// the cluster size.
	Replication int
	// Server is the per-shard server configuration (telemetry). Every
	// shard replica on the node gets its own full Server built from it,
	// so each cluster shard has its own index and its own lock.
	Server server.Config
	// Dial opens connections to peer nodes, for shard sync. Nil means
	// TCP to the node name.
	Dial client.DialFunc
	// Client tunes the peer-facing clients (retries, timeouts). Dial
	// and LazyDial are overridden per peer.
	Client client.Options
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.Replication <= 0 {
		c.Replication = DefaultReplication
	}
	if c.Replication > len(c.Table.nodes) {
		c.Replication = len(c.Table.nodes)
	}
	return c
}

// DefaultReplication is the default per-shard replica count.
const DefaultReplication = 2

// Node is one cluster member: a full beesd Server per owned shard plus
// the shard-frame handlers the TCP layer dispatches to (it implements
// server.ClusterHandler). A frame for a shard the node does not own is
// refused with an error (see notOwner).
type Node struct {
	cfg NodeConfig

	mu     sync.RWMutex
	shards map[uint32]*server.Server

	peerMu sync.Mutex
	peers  map[string]*client.Client

	// querySets counts the sets of every answered ShardQuery,
	// queryReranks the exact similarities computed for them: at most
	// Limit per set, whatever the shard count.
	querySets    *telemetry.Counter
	queryReranks *telemetry.Counter
}

// NewNode builds the node and its per-shard servers (one fresh Server
// per shard this node replicates under the table + replication factor).
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Table == nil {
		return nil, errors.New("cluster: node needs a table")
	}
	cfg = cfg.withDefaults()
	found := false
	for _, n := range cfg.Table.nodes {
		if n == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: node %q not in table", cfg.Self)
	}
	n := &Node{
		cfg:    cfg,
		shards: make(map[uint32]*server.Server),
		peers:  make(map[string]*client.Client),

		querySets:    cfg.Server.Telemetry.Counter("cluster.node.query.sets"),
		queryReranks: cfg.Server.Telemetry.Counter("cluster.node.query.reranks"),
	}
	for _, s := range cfg.Table.NodeShards(cfg.Self, cfg.Replication) {
		n.shards[s] = server.NewWithConfig(cfg.Server)
	}
	return n, nil
}

// Shards returns the owned shard ids in ascending order.
func (n *Node) Shards() []uint32 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]uint32, 0, len(n.shards))
	for s := range n.shards {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ShardServer returns the server replica for an owned shard (nil when
// the node does not own it). Tests reach per-shard state through it.
func (n *Node) ShardServer(shard uint32) *server.Server {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.shards[shard]
}

// HandleShardRoute serves one shard frame: answer the block query
// against the shard's store, stage the carried blocks, then commit the
// manifests under the router-assigned IDs, all on the one shard
// server. Validation failures answer with an error frame; a durability
// failure returns an error so the connection drops without acking.
func (n *Node) HandleShardRoute(m *wire.ShardRoute) (any, error) {
	srv := n.ShardServer(m.Shard)
	if srv == nil {
		return n.notOwner(m.Shard), nil
	}
	have := srv.Blocks().HaveBitmap(m.Query)
	for i := range m.Blocks {
		b := &m.Blocks[i]
		if _, err := srv.StageBlock(b.Hash, b.Data); err != nil {
			if errors.Is(err, server.ErrDurability) {
				return nil, err
			}
			return &wire.ErrorResponse{Message: fmt.Sprintf("shard %d block %s: %v", m.Shard, b.Hash.Short(), err)}, nil
		}
	}
	var ids []int64
	if len(m.Items) > 0 {
		var err error
		ids, err = srv.ApplyShardCommit(m.Nonce, m.IDs, server.ManifestUploads(m.Items))
		if errors.Is(err, server.ErrDurability) {
			return nil, err
		}
		if err != nil {
			return &wire.ErrorResponse{Message: err.Error()}, nil
		}
	}
	return &wire.ShardRouteResponse{Have: have, IDs: ids}, nil
}

// notOwner refuses a shard frame for a shard this node does not own.
// Routers send each frame only to the shard's owners, from the same
// placement table, so such a frame is misrouted; the node relays none.
func (n *Node) notOwner(shard uint32) *wire.ErrorResponse {
	return &wire.ErrorResponse{Message: fmt.Sprintf("cluster: node %s does not own shard %d", n.cfg.Self, shard)}
}

// HandleShardQuery answers the CBRD candidate query for each set
// against the union of the requested (owned) shards, plus per-shard
// stats. Per set, LSH votes are collected across all the shards, ranked
// once by (votes desc, ID asc) and truncated to the request limit, and
// only the survivors are scored exactly — the ranking a single combined
// index would produce over those shards, at no more than Limit exact
// similarities per set. The sets of a frame run across the host cores.
func (n *Node) HandleShardQuery(m *wire.ShardQuery) (any, error) {
	srvs := make([]*server.Server, len(m.Shards))
	resp := &wire.ShardQueryResponse{Stats: make([]wire.ShardStat, len(m.Shards))}
	seen := make(map[uint32]bool, len(m.Shards))
	for i, s := range m.Shards {
		srv := n.ShardServer(s)
		if srv == nil {
			return n.notOwner(s), nil
		}
		if seen[s] {
			// A repeated shard would count its candidates twice and push
			// real ones out of the top-Limit.
			return &wire.ErrorResponse{Message: fmt.Sprintf("cluster: shard %d listed twice in a shard query", s)}, nil
		}
		seen[s] = true
		srvs[i] = srv
		st := srv.Stats()
		resp.Stats[i] = wire.ShardStat{
			Shard:  s,
			Images: int64(st.Images),
			Bytes:  st.BytesReceived,
			NextID: srv.NextID(),
		}
	}
	limit := int(m.Limit)
	resp.PerSet = make([][]wire.ShardCandidate, len(m.Sets))
	par.Do(len(m.Sets), func(si int) {
		cands := server.CandidatesAcross(srvs, m.Sets[si], limit)
		out := make([]wire.ShardCandidate, len(cands))
		for i, c := range cands {
			out[i] = wire.ShardCandidate{
				ID:    int64(c.ID),
				Votes: uint32(c.Votes),
				Sim:   c.Similarity,
			}
		}
		resp.PerSet[si] = out
	})
	n.querySets.Add(int64(len(m.Sets)))
	for _, cands := range resp.PerSet {
		// One exact similarity was computed per returned candidate.
		n.queryReranks.Add(int64(len(cands)))
	}
	return resp, nil
}

// HandleShardSync streams an owned shard's replica state: the server's
// deterministic snapshot bytes plus the nonce-dedup window in FIFO
// order. A joining replica applies both and is then byte-identical to
// this one — refcounts, upload history, and retry window included.
func (n *Node) HandleShardSync(m *wire.ShardSync) (any, error) {
	srv := n.ShardServer(m.Shard)
	if srv == nil {
		return n.notOwner(m.Shard), nil
	}
	var buf bytes.Buffer
	if err := srv.SaveSnapshot(&buf); err != nil {
		return &wire.ErrorResponse{Message: fmt.Sprintf("cluster: snapshot shard %d: %v", m.Shard, err)}, nil
	}
	entries := srv.DedupEntries()
	nonces := make([]wire.NonceEntry, len(entries))
	for i, e := range entries {
		nonces[i] = wire.NonceEntry{Nonce: e.Nonce, IDs: e.IDs}
	}
	return &wire.ShardSyncResponse{Snapshot: buf.Bytes(), Nonces: nonces}, nil
}

// CatchUp rebuilds every owned shard from a live replica: for each
// shard it asks the other replicas in preference order for a ShardSync
// stream, loads the snapshot into a fresh server, reseeds the nonce
// window, and swaps the rebuilt replica in. A shard with no reachable
// peer replica is an error — serving an empty replica would answer
// queries wrongly and silently lose the shard's history.
func (n *Node) CatchUp() error {
	for _, shard := range n.Shards() {
		if err := n.syncShard(shard); err != nil {
			return err
		}
	}
	return nil
}

// syncShard pulls one shard's state from the first peer replica that
// answers.
func (n *Node) syncShard(shard uint32) error {
	var lastErr error
	for _, peerName := range n.cfg.Table.Replicas(shard, n.cfg.Replication) {
		if peerName == n.cfg.Self {
			continue
		}
		resp, err := n.peer(peerName).ShardSync(shard)
		if err != nil {
			lastErr = err
			continue
		}
		fresh := server.NewWithConfig(n.cfg.Server)
		if len(resp.Snapshot) > 0 {
			if err := fresh.LoadSnapshot(bytes.NewReader(resp.Snapshot)); err != nil {
				lastErr = fmt.Errorf("cluster: load shard %d from %s: %w", shard, peerName, err)
				continue
			}
		}
		for _, e := range resp.Nonces {
			fresh.SeedDedup(e.Nonce, e.IDs)
		}
		n.mu.Lock()
		n.shards[shard] = fresh
		n.mu.Unlock()
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: shard %d has no peer replica", shard)
	}
	return fmt.Errorf("cluster: sync shard %d: %w", shard, lastErr)
}

// peer returns (lazily building) the client for a peer node.
func (n *Node) peer(name string) *client.Client {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	if c, ok := n.peers[name]; ok {
		return c
	}
	opts := n.cfg.Client
	opts.LazyDial = true
	if n.cfg.Dial != nil {
		opts.Dial = n.cfg.Dial
	}
	c, err := client.DialOptions(name, opts)
	if err != nil {
		// LazyDial never dials here; DialOptions cannot fail without it.
		panic(fmt.Sprintf("cluster: peer client %s: %v", name, err))
	}
	n.peers[name] = c
	return c
}

// Close releases the node's peer clients. The per-shard servers hold no
// network resources.
func (n *Node) Close() error {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	for _, c := range n.peers {
		c.Close()
	}
	n.peers = make(map[string]*client.Client)
	return nil
}
