package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"bees/internal/client"
	"bees/internal/cluster"
	"bees/internal/diskfault"
	"bees/internal/features"
	"bees/internal/server"
	"bees/internal/telemetry"
	"bees/internal/wal"
	"bees/internal/wire"
)

// env is what one round's stack is built in.
type env struct {
	dir string  // scratch directory for WAL dirs, removed when the run ends
	tr  *tracer // nil in rounds that run with the decorators off
}

// lane carries the byte and round-trip counts of one client's
// connections — on in every round, as the registry counters are in
// beesd — and, in traced rounds, the spans in flight on them, so that a
// span recorded further down can name its parent.
type lane struct {
	out, in, trips atomic.Int64

	tr   *tracer
	root atomic.Int64 // op span in flight
	cur  atomic.Int64 // innermost span in flight (the op or a call inside it)
}

func (e *env) newLane() *lane { return &lane{tr: e.tr} }

// call times one client call into the stack as a child span of the op
// in flight; with the decorators off it just runs fn.
func (l *lane) call(name string, fn func()) {
	if l.tr == nil {
		fn()
		return
	}
	id := l.tr.newID()
	parent := l.cur.Swap(id)
	start := time.Now()
	fn()
	l.tr.record(id, name, start, time.Now(), parent, l.root.Load())
	l.cur.Store(parent)
}

// dialer returns the client.Options.Dial seam: plain TCP, metered.
func (l *lane) dialer() client.DialFunc {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		mc := &meterConn{Conn: c, ln: l}
		if l.tr != nil {
			l.tr.register(mc)
		}
		return mc, nil
	}
}

// meterConn is the client end of a connection. The client writes a
// request and then reads the response under one lock, so the fields
// below are touched by one goroutine at a time.
type meterConn struct {
	net.Conn
	ln      *lane
	waiting bool
	sent    time.Time
	waitID  atomic.Int64 // client.wait span of the round trip in flight
}

func (c *meterConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.ln.out.Add(int64(n))
	if c.ln.tr != nil {
		if !c.waiting {
			c.waitID.Store(c.ln.tr.newID())
		}
		c.sent = time.Now()
	}
	c.waiting = true
	return n, err
}

func (c *meterConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.ln.in.Add(int64(n))
	if c.waiting && n > 0 {
		c.waiting = false
		c.ln.trips.Add(1)
		if tr := c.ln.tr; tr != nil {
			tr.record(c.waitID.Load(), "client.wait", c.sent, time.Now(), c.ln.cur.Load(), c.ln.root.Load())
		}
	}
	return n, err
}

// spyListener wraps accepted connections of a traced server so that
// service time is measured from outside the program: last request byte
// read to first response byte written.
type spyListener struct {
	net.Listener
	tr *tracer
}

func (l spyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &spyConn{Conn: c, tr: l.tr}, nil
}

// spyConn follows the [u32 len][u8 type] framing of the requests it
// carries. A connection is served by one goroutine, request after
// request, so it needs no lock.
type spyConn struct {
	net.Conn
	tr      *tracer
	peer    *meterConn // the client end, looked up once
	hdr     [5]byte
	hdrN    int
	need    int // payload bytes of the current request still unread
	typ     wire.MsgType
	hdrAt   time.Time
	reqAt   time.Time
	pending bool // a whole request was read; the next write answers it
}

func (c *spyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	for b := p[:n]; len(b) > 0; {
		if c.hdrN < len(c.hdr) {
			k := copy(c.hdr[c.hdrN:], b)
			c.hdrN += k
			b = b[k:]
			if c.hdrN < len(c.hdr) {
				break
			}
			c.need = int(binary.LittleEndian.Uint32(c.hdr[:4]))
			c.typ = wire.MsgType(c.hdr[4])
			c.hdrAt = time.Now()
		} else {
			k := len(b)
			if k > c.need {
				k = c.need
			}
			c.need -= k
			b = b[k:]
		}
		if c.hdrN == len(c.hdr) && c.need == 0 {
			c.hdrN, c.pending, c.reqAt = 0, true, time.Now()
		}
	}
	return n, err
}

// serviceFrames are the request kinds whose server-side service time the
// traced rounds attribute, by the type byte of the frame header.
var serviceFrames = []struct {
	typ  wire.MsgType
	name string
}{
	{wire.MsgQueryRequest, "query"},
	{wire.MsgBlockQuery, "block_query"},
	{wire.MsgBlockPut, "block_put"},
	{wire.MsgManifestCommit, "manifest_commit"},
	{wire.MsgShardQuery, "shard_query"},
	{wire.MsgShardRoute, "shard_route"},
}

func serviceName(typ wire.MsgType) string {
	for _, f := range serviceFrames {
		if f.typ == typ {
			return f.name
		}
	}
	return ""
}

func (c *spyConn) Write(p []byte) (int, error) {
	if c.pending {
		c.pending = false
		if name := serviceName(c.typ); name != "" {
			now := time.Now()
			if c.peer == nil {
				c.peer = c.tr.peer(c.RemoteAddr())
			}
			var parent, op int64
			if c.peer != nil {
				parent, op = c.peer.waitID.Load(), c.peer.ln.root.Load()
			}
			c.tr.record(0, "server.service."+name, c.reqAt, now, parent, op)
			if c.typ == wire.MsgBlockPut {
				c.tr.record(0, "server.read.block_put", c.hdrAt, c.reqAt, parent, op)
			}
		}
	}
	return c.Conn.Write(p)
}

// timingFS is the diskfault.FS seam: it reports every fsync of a file
// it created. A traced server records them as spans; the layer walk
// keeps their durations.
type timingFS struct {
	diskfault.FS
	onSync func(start, end time.Time)
}

func (f timingFS) Create(name string) (diskfault.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f.onSync}, nil
}

type timedFile struct {
	diskfault.File
	onSync func(start, end time.Time)
}

func (f timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.onSync(start, time.Now())
	return err
}

// nodeSpy is the server.TCPConfig.Cluster seam of a traced cluster
// node: it times the node's shard handlers.
type nodeSpy struct {
	*cluster.Node
	tr *tracer
}

func (s nodeSpy) HandleShardRoute(m *wire.ShardRoute) (any, error) {
	start := time.Now()
	resp, err := s.Node.HandleShardRoute(m)
	s.tr.record(0, "cluster.node.shard_route", start, time.Now(), 0, 0)
	return resp, err
}

func (s nodeSpy) HandleShardQuery(m *wire.ShardQuery) (any, error) {
	start := time.Now()
	resp, err := s.Node.HandleShardQuery(m)
	s.tr.record(0, "cluster.node.shard_query", start, time.Now(), 0, 0)
	if r, ok := resp.(*wire.ShardQueryResponse); ok {
		for _, cands := range r.PerSet {
			s.tr.candidates.Add(int64(len(cands)))
		}
	}
	return resp, err
}

// apiSpy is the core.ServerAPI + core.Uploader seam of a traced device:
// it times the pipeline's two kinds of call into the transport.
type apiSpy struct {
	rs *client.RemoteServer
	ln *lane
}

func (a apiSpy) QueryMaxBatch(sets []*features.BinarySet) (sims []float64) {
	a.ln.call("call.query", func() { sims = a.rs.QueryMaxBatch(sets) })
	return sims
}

func (a apiSpy) UploadItems(nonce uint64, items []server.UploadItem) (ids []int64, err error) {
	a.ln.call("call.upload", func() { ids, err = a.rs.UploadItems(nonce, items) })
	return ids, err
}

func (a apiSpy) UploadBatch(items []server.UploadItem) error { return a.rs.UploadBatch(items) }
func (a apiSpy) NewUploadNonce() uint64                      { return a.rs.NewUploadNonce() }
func (a apiSpy) TakeDegraded() int                           { return a.rs.TakeDegraded() }

// node is one beesd-shaped server: Recover + WAL (policy record, the
// beesd default) + TCP endpoint on a loopback port.
type node struct {
	reg    *telemetry.Registry
	srv    *server.Server
	tcp    *server.TCPServer
	addr   string
	walCfg wal.Config // Dir is "" for a node without a log
}

func listenLoopback(tr *tracer) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if tr != nil {
		return spyListener{ln, tr}, nil
	}
	return ln, nil
}

func bootNode(e *env) (*node, error) {
	dir, err := os.MkdirTemp(e.dir, "wal-")
	if err != nil {
		return nil, err
	}
	n := &node{reg: telemetry.NewRegistry(), walCfg: wal.Config{Dir: dir, Policy: wal.SyncEachRecord}}
	if e.tr != nil {
		tr := e.tr
		n.walCfg.FS = timingFS{diskfault.OS(), func(start, end time.Time) { tr.record(0, "wal.fsync", start, end, 0, 0) }}
	}
	n.srv, _, err = server.Recover(server.RecoverConfig{Server: server.Config{Telemetry: n.reg}, WAL: n.walCfg})
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	ln, err := listenLoopback(e.tr)
	if err != nil {
		return nil, err
	}
	n.tcp = server.NewTCPConfig(n.srv, server.TCPConfig{Telemetry: n.reg})
	n.addr = n.tcp.Serve(ln).String()
	return n, nil
}

// stop closes the endpoint and the log; the WAL directory stays for
// recoverAgain.
func (n *node) stop() error {
	err := n.tcp.Close()
	if l := n.srv.WAL(); l != nil {
		if werr := l.Close(); err == nil {
			err = werr
		}
	}
	return err
}

// recoverAgain replays the stopped node's log into a fresh server, the
// way a restarted beesd would, and reports how long that took.
func (n *node) recoverAgain() (*server.Server, server.RecoverStats, time.Duration, error) {
	cfg := n.walCfg
	cfg.FS = nil
	start := time.Now()
	srv, st, err := server.Recover(server.RecoverConfig{WAL: cfg})
	took := time.Since(start)
	if err != nil {
		return nil, st, took, err
	}
	return srv, st, took, srv.WAL().Close()
}

// clientSeed is the fixed client.Options.Seed; client k uses
// clientSeed+k so that two clients never draw the same nonce.
const clientSeed = 0xBEE5

// dial connects one client with the default fault-tolerance settings
// and runs the warm-up (first dial, Hello negotiation) so that it stays
// out of the samples.
func dial(addr string, l *lane, reg *telemetry.Registry, k int) (*client.Client, error) {
	opts := client.DefaultOptions()
	opts.Seed = clientSeed + int64(k)
	opts.Dial = l.dialer()
	opts.Telemetry = reg
	c, err := client.DialOptions(addr, opts)
	if err != nil {
		return nil, err
	}
	if ok, err := c.NegotiateBlocks(); err != nil || !ok {
		c.Close()
		return nil, fmt.Errorf("block negotiation: ok=%v err=%v", ok, err)
	}
	return c, nil
}

// clusterStack is three nodes and a router over loopback TCP.
type clusterStack struct {
	regs   []*telemetry.Registry
	nodes  []*cluster.Node
	tcps   []*server.TCPServer
	router *cluster.Router
}

const (
	clusterNodes  = 3
	clusterShards = 8
)

func bootCluster(e *env, l *lane, clientReg *telemetry.Registry) (*clusterStack, error) {
	// Listeners are bound first: a node's name in the table is its
	// dialable address.
	lns := make([]net.Listener, clusterNodes)
	names := make([]string, clusterNodes)
	for i := range lns {
		ln, err := listenLoopback(e.tr)
		if err != nil {
			return nil, err
		}
		lns[i], names[i] = ln, ln.Addr().String()
	}
	table, err := cluster.NewTable(names, clusterShards)
	if err != nil {
		return nil, err
	}
	cs := &clusterStack{}
	for i, name := range names {
		reg := telemetry.NewRegistry()
		// Shard servers run without a WAL, as beesd's cluster mode does.
		nd, err := cluster.NewNode(cluster.NodeConfig{
			Self: name, Table: table, Replication: cluster.DefaultReplication,
			Server: server.Config{Telemetry: reg},
		})
		if err != nil {
			return nil, err
		}
		var h server.ClusterHandler = nd
		if e.tr != nil {
			h = nodeSpy{nd, e.tr}
		}
		tcp := server.NewTCPConfig(server.NewWithConfig(server.Config{Telemetry: reg}),
			server.TCPConfig{Telemetry: reg, Cluster: h})
		tcp.Serve(lns[i])
		cs.regs, cs.nodes, cs.tcps = append(cs.regs, reg), append(cs.nodes, nd), append(cs.tcps, tcp)
	}
	opts := client.DefaultOptions()
	opts.Seed = clientSeed
	opts.Dial = l.dialer()
	opts.Telemetry = clientReg
	cs.router, err = cluster.NewRouter(cluster.RouterOptions{
		Table: table, Replication: cluster.DefaultReplication, Client: opts,
	})
	return cs, err
}

func (cs *clusterStack) stop() {
	if cs.router != nil {
		cs.router.Close()
	}
	for i := range cs.tcps {
		cs.tcps[i].Close()
		cs.nodes[i].Close()
	}
}
