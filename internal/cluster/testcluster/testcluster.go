// Package testcluster boots a whole beesd cluster inside one process:
// K nodes, each a real TCP frame server over an in-memory pipe network
// (netsim.PipeNet), a per-node partition gate for chaos injection, and
// a cluster.Router wired through the same gates. Everything is
// deterministic — synchronous pipes, seeded workloads, write-counted
// partition triggers — so the differential and chaos tests reproduce
// bit-for-bit.
package testcluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"bees/internal/client"
	"bees/internal/cluster"
	"bees/internal/netsim"
	"bees/internal/server"
)

// Config sizes the cluster under test.
type Config struct {
	// Nodes are the member names (also their pipe-network addresses).
	// Default: n1, n2, n3.
	Nodes []string
	// Shards is the logical shard count. Default 8.
	Shards int
	// Replication is the per-shard replica count. Default 2.
	Replication int
	// Client tunes router/peer clients. Dial is overridden to the pipe
	// network.
	Client client.Options
}

func (c Config) withDefaults() Config {
	if len(c.Nodes) == 0 {
		c.Nodes = []string{"n1", "n2", "n3"}
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Replication <= 0 {
		c.Replication = cluster.DefaultReplication
	}
	return c
}

// nodeProc is one running node: its partition gate (all traffic TO the
// node crosses it), the cluster handler, the frame server, and the
// bound listener.
type nodeProc struct {
	name string
	part *netsim.Partition
	node *cluster.Node
	tcp  *server.TCPServer
	ln   net.Listener
	dead bool
}

// Cluster is the running fixture.
type Cluster struct {
	cfg   Config
	net   *netsim.PipeNet
	table *cluster.Table

	mu    sync.Mutex
	nodes map[string]*nodeProc

	// Router is the cluster front end under test.
	Router *cluster.Router
}

// Start boots the cluster: one node per name, all listeners bound, and
// a router dialing through the per-node partition gates.
func Start(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	table, err := cluster.NewTable(cfg.Nodes, cfg.Shards)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:   cfg,
		net:   netsim.NewPipeNet(),
		table: table,
		nodes: make(map[string]*nodeProc),
	}
	for _, name := range cfg.Nodes {
		np := &nodeProc{name: name, part: netsim.NewPartition()}
		c.nodes[name] = np
		if err := c.boot(np); err != nil {
			c.Close()
			return nil, err
		}
	}
	ropts := cfg.Client
	ropts.Dial = c.dial
	c.Router, err = cluster.NewRouter(cluster.RouterOptions{
		Table:       table,
		Replication: cfg.Replication,
		Client:      ropts,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// dial routes every connection — router→node and node→node alike —
// through the TARGET node's partition gate, so severing a node cuts it
// off from the whole cluster at once.
func (c *Cluster) dial(addr string, timeout time.Duration) (net.Conn, error) {
	c.mu.Lock()
	np, ok := c.nodes[addr]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("testcluster: unknown node %q", addr)
	}
	return np.part.Dialer(func(addr string, _ time.Duration) (net.Conn, error) {
		return c.net.Dial(addr)
	})(addr, timeout)
}

// boot builds a fresh node process behind np.name: new (empty) shard
// servers, a new frame server, and a freshly bound listener.
func (c *Cluster) boot(np *nodeProc) error {
	copts := c.cfg.Client
	node, err := cluster.NewNode(cluster.NodeConfig{
		Self:        np.name,
		Table:       c.table,
		Replication: c.cfg.Replication,
		Dial:        c.dial,
		Client:      copts,
	})
	if err != nil {
		return err
	}
	ln, err := c.net.Listen(np.name)
	if err != nil {
		node.Close()
		return err
	}
	tcp := server.NewTCPConfig(server.NewDefault(), server.TCPConfig{Cluster: node})
	tcp.Serve(ln)
	np.node, np.tcp, np.ln, np.dead = node, tcp, ln, false
	return nil
}

// Table exposes the membership table (for placement assertions).
func (c *Cluster) Table() *cluster.Table { return c.table }

// DialFunc returns the cluster's partition-gated dialer, for tests that
// speak to a node directly instead of through the router.
func (c *Cluster) DialFunc() client.DialFunc { return c.dial }

// Node returns a node's cluster handler (nil if killed), for reaching
// per-shard servers in assertions.
func (c *Cluster) Node(name string) *cluster.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	np := c.nodes[name]
	if np == nil || np.dead {
		return nil
	}
	return np.node
}

// Partition returns a node's partition gate for custom chaos scripts.
func (c *Cluster) Partition(name string) *netsim.Partition {
	c.mu.Lock()
	defer c.mu.Unlock()
	if np := c.nodes[name]; np != nil {
		return np.part
	}
	return nil
}

// Kill severs a node: all its connections break, new dials to it fail,
// and its frame server shuts down. The node's in-memory shard state is
// discarded — a later Restart comes back empty and must CatchUp.
func (c *Cluster) Kill(name string) error {
	c.mu.Lock()
	np := c.nodes[name]
	c.mu.Unlock()
	if np == nil {
		return fmt.Errorf("testcluster: unknown node %q", name)
	}
	if np.dead {
		return nil
	}
	np.part.Sever()
	np.ln.Close()
	np.tcp.Close()
	np.node.Close()
	c.mu.Lock()
	np.dead = true
	c.mu.Unlock()
	return nil
}

// KillAfterWrites arms the node's partition gate to sever after n more
// successful writes cross it in either direction — the deterministic
// mid-batch crash. Follow with Kill (idempotent on the severed gate)
// once the workload step completes, then Restart to heal.
func (c *Cluster) KillAfterWrites(name string, n int) error {
	p := c.Partition(name)
	if p == nil {
		return fmt.Errorf("testcluster: unknown node %q", name)
	}
	p.SeverAfterWrites(n)
	return nil
}

// Restart heals a killed node: a fresh (empty) node process is booted
// behind the same name, the partition heals, and the node pulls every
// owned shard from a live replica via ShardSync before returning.
func (c *Cluster) Restart(name string) error {
	c.mu.Lock()
	np := c.nodes[name]
	c.mu.Unlock()
	if np == nil {
		return fmt.Errorf("testcluster: unknown node %q", name)
	}
	if !np.dead {
		return fmt.Errorf("testcluster: node %q still running", name)
	}
	if err := c.boot(np); err != nil {
		return err
	}
	np.part.Heal()
	return np.node.CatchUp()
}

// Close tears the whole cluster down.
func (c *Cluster) Close() {
	if c.Router != nil {
		c.Router.Close()
	}
	c.mu.Lock()
	nodes := make([]*nodeProc, 0, len(c.nodes))
	for _, np := range c.nodes {
		nodes = append(nodes, np)
	}
	c.mu.Unlock()
	for _, np := range nodes {
		if np.dead || np.tcp == nil {
			continue
		}
		np.part.Sever()
		np.ln.Close()
		np.tcp.Close()
		np.node.Close()
	}
}

// ShardReplicas returns the live nodes replicating a shard, best-score
// first.
func (c *Cluster) ShardReplicas(shard uint32) []string {
	var out []string
	for _, name := range c.table.Replicas(shard, c.cfg.Replication) {
		if c.Node(name) != nil {
			out = append(out, name)
		}
	}
	return out
}
