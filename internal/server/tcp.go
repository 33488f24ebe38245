package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"bees/internal/features"
	"bees/internal/telemetry"
	"bees/internal/wire"
)

// TCPConfig tunes the network-facing hardening of a TCPServer. The zero
// value selects the defaults documented per field.
type TCPConfig struct {
	// IdleTimeout is how long a connection may sit between frames before
	// the server drops it — a client stalled mid-frame on the paper's
	// 0–512 Kbps link cannot pin a handler goroutine forever. Default 2m.
	IdleTimeout time.Duration
	// MaxConns caps simultaneous connections; beyond it new connections
	// are closed immediately. Default 256.
	MaxConns int
	// MaxInflightFrames is the load-shedding high-water mark: when at
	// least this many query/upload frames are already being processed,
	// a newly arriving one is answered with wire.BusyResponse instead of
	// being handled. Default 256.
	MaxInflightFrames int
	// MaxInflightBytes sheds on announced payload volume rather than
	// frame count: when the payload bytes of in-flight query/upload
	// frames already meet this mark, new work is refused. The announced
	// size is charged before the payload is read, so a flood of large
	// frames trips the breaker while the bytes are still in flight.
	// Default 64 MiB.
	MaxInflightBytes int64
	// AdmitPolicy selects how load is shed past the high-water marks:
	// AdmitFIFO (default) refuses whatever arrives next; AdmitUtility
	// sheds lowest-submodular-gain uploads first (see Admission).
	AdmitPolicy AdmitPolicy
	// AdmitLowWater is the occupancy fraction at which the utility
	// policy starts early-shedding low-gain uploads. Default 0.5.
	AdmitLowWater float64
	// Telemetry receives the server's wire counters (frames by type,
	// dedup hits, accepted/rejected connections, upload bytes). Nil
	// disables instrumentation; beesd passes the registry its
	// -debug-addr endpoint serves.
	Telemetry *telemetry.Registry
	// Cluster, when set, makes this endpoint a cluster node: the shard
	// frames (ShardRoute/ShardQuery/ShardSync) are dispatched to it and
	// FeatureCluster is advertised in Hello. Nil answers shard frames
	// with an error (the single-node default).
	Cluster ClusterHandler
}

// ClusterHandler serves the sharded-cluster frames. Implemented by
// cluster.Node; the indirection keeps internal/server free of a
// dependency on internal/cluster (which imports this package for its
// per-shard servers). A handler returns the wire response to send —
// an ErrorResponse for validation failures — or an error when the
// connection must drop without acknowledging (durability loss).
type ClusterHandler interface {
	HandleShardRoute(m *wire.ShardRoute) (any, error)
	HandleShardQuery(m *wire.ShardQuery) (any, error)
	HandleShardSync(m *wire.ShardSync) (any, error)
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.MaxInflightFrames <= 0 {
		c.MaxInflightFrames = 256
	}
	if c.MaxInflightBytes <= 0 {
		c.MaxInflightBytes = 64 << 20
	}
	return c
}

// writeTimeout bounds each response write so a peer that stops reading
// cannot wedge a handler.
const writeTimeout = 30 * time.Second

// busyRetryAfter is the pacing hint carried in BusyResponse; clients
// hold uploads that long before retrying.
const busyRetryAfter = time.Second

// TCPServer exposes a Server over the wire protocol. One goroutine per
// connection; requests on a connection are handled sequentially.
type TCPServer struct {
	srv *Server
	cfg TCPConfig
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	tel *telemetry.Registry

	// adm is the load-shedding controller: query/upload frames are
	// charged from the frame header — before the payload is read — so
	// overload is visible while the bytes are still crossing the slow
	// link. The same controller type backs the scenario harness, so the
	// policies it measures are the ones running here.
	adm *Admission

	// clientTel accumulates telemetry snapshots pushed by clients
	// (wire.TelemetryPush) so beesd's /debug endpoint can expose the
	// phone-side pipeline metrics next to the server's own.
	clientTelMu sync.Mutex
	clientTel   telemetry.Snapshot
}

// NewTCP wraps a Server for network serving with default hardening.
func NewTCP(srv *Server) *TCPServer { return NewTCPConfig(srv, TCPConfig{}) }

// NewTCPConfig wraps a Server with explicit deadline/limit settings.
func NewTCPConfig(srv *Server, cfg TCPConfig) *TCPServer {
	cfg = cfg.withDefaults()
	return &TCPServer{
		srv:   srv,
		cfg:   cfg,
		conns: make(map[net.Conn]struct{}),
		tel:   cfg.Telemetry, // nil is a valid no-op sink
		adm: NewAdmission(AdmissionConfig{
			Policy:    cfg.AdmitPolicy,
			MaxFrames: cfg.MaxInflightFrames,
			MaxBytes:  cfg.MaxInflightBytes,
			LowWater:  cfg.AdmitLowWater,
			Telemetry: cfg.Telemetry,
		}),
	}
}

// Listen binds the given address (e.g. "127.0.0.1:0") and starts
// accepting in a background goroutine. It returns the bound address.
func (t *TCPServer) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	return t.Serve(ln), nil
}

// Serve starts accepting on an already-bound listener — the in-process
// cluster harness serves over netsim pipe listeners this way — and
// returns its address. Close still closes the listener.
func (t *TCPServer) Serve(ln net.Listener) net.Addr {
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop()
	return ln.Addr()
}

func (t *TCPServer) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		if len(t.conns) >= t.cfg.MaxConns {
			t.mu.Unlock()
			log.Printf("beesd: rejecting %s: connection limit %d reached",
				conn.RemoteAddr(), t.cfg.MaxConns)
			t.tel.Counter("server.conns.rejected").Inc()
			conn.Close()
			continue
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.tel.Counter("server.conns.accepted").Inc()
		t.tel.Gauge("server.conns.active").Add(1)
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

func (t *TCPServer) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
		t.tel.Gauge("server.conns.active").Add(-1)
	}()
	for {
		// The idle deadline covers the whole frame read: a peer that
		// stalls mid-frame is indistinguishable from one that went away.
		if err := conn.SetReadDeadline(time.Now().Add(t.cfg.IdleTimeout)); err != nil {
			return
		}
		typ, n, err := wire.ReadHeader(conn)
		if err != nil {
			return // EOF, timeout, or broken peer; drop the connection
		}
		if !sheddable(typ) {
			if err := t.readAndHandle(conn, typ, n); err != nil {
				return
			}
			continue
		}
		// Admission control: charge the announced load at the header, then
		// let the policy decide. The decision uses the pre-existing load —
		// a frame never sheds itself, so a lone client on an idle server
		// always gets in.
		tkt := t.adm.Charge(int64(n))
		var err2 error
		if t.adm.Policy() == AdmitUtility && uploadFrame(typ) {
			err2 = t.admitUtility(conn, typ, n, tkt)
		} else if t.adm.Admit(tkt, 0) {
			err2 = t.readAndHandle(conn, typ, n)
		} else {
			err2 = t.shed(conn, n)
		}
		tkt.Release()
		if err2 != nil {
			return
		}
	}
}

// admitUtility handles a sheddable upload frame under the utility
// policy: the gain that ranks the frame lives in its payload, so the
// payload is read and decoded before the admit decision. That costs no
// extra transfer — the peer has already committed the bytes, and the
// FIFO shed path drains them unread anyway — only the decode, which the
// utility knob explicitly trades for gain-aware shedding.
func (t *TCPServer) admitUtility(conn net.Conn, typ wire.MsgType, payloadLen int, tkt *Ticket) error {
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return err
	}
	msg, err := wire.DecodePayload(typ, payload)
	if err != nil {
		return err
	}
	gain := 0.0
	switch m := msg.(type) {
	case *wire.ManifestCommit:
		gain = m.MaxGain()
	case *wire.ShardRoute:
		gain = m.MaxGain()
	}
	if !t.adm.Admit(tkt, gain) {
		return t.busy(conn)
	}
	if err := t.handle(conn, msg); err != nil {
		log.Printf("beesd: connection error: %v", err)
		return err
	}
	return nil
}

// uploadFrame reports whether a sheddable frame carries upload gains.
func uploadFrame(typ wire.MsgType) bool {
	return typ == wire.MsgManifestCommit || typ == wire.MsgShardRoute
}

// sheddable reports whether a frame type participates in load shedding.
// Only the work-carrying requests do: stats, telemetry pushes, and
// responses stay cheap and must keep flowing so operators can observe an
// overloaded server. Hello is a handshake, not work. ShardSync is exempt
// too: it is repair traffic — shedding it would keep a healing replica
// degraded exactly when the cluster most needs its capacity back. The
// retired whole-image upload frame is not work either: it is answered
// with an error and applies nothing.
func sheddable(typ wire.MsgType) bool {
	switch typ {
	case wire.MsgQueryRequest, wire.MsgBlockQuery, wire.MsgBlockPut,
		wire.MsgManifestCommit, wire.MsgShardRoute, wire.MsgShardQuery:
		return true
	}
	return false
}

// shed refuses an admitted frame: the payload is drained (the peer has
// already committed it to the socket) and the connection answered with
// the retry-after hint. The request is NOT applied, so a client may
// resend the identical frame — same nonce included — after the hint.
func (t *TCPServer) shed(conn net.Conn, payloadLen int) error {
	if _, err := io.CopyN(io.Discard, conn, int64(payloadLen)); err != nil {
		return err
	}
	return t.busy(conn)
}

// busy answers a refused frame whose payload has already been consumed.
func (t *TCPServer) busy(conn net.Conn) error {
	t.tel.Counter("server.frames.busy").Inc()
	if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return err
	}
	return wire.WriteFrame(conn, &wire.BusyResponse{
		RetryAfterMs: uint32(busyRetryAfter / time.Millisecond),
	})
}

// readAndHandle completes an admitted frame: payload read, decode,
// dispatch. Errors drop the connection (the caller returns).
func (t *TCPServer) readAndHandle(conn net.Conn, typ wire.MsgType, payloadLen int) error {
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return err
	}
	msg, err := wire.DecodePayload(typ, payload)
	if err != nil {
		return err
	}
	if err := t.handle(conn, msg); err != nil {
		log.Printf("beesd: connection error: %v", err)
		return err
	}
	return nil
}

func (t *TCPServer) handle(conn net.Conn, msg any) error {
	if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return err
	}
	t.tel.Counter("server.frames.total").Inc()
	switch m := msg.(type) {
	case *wire.QueryRequest:
		span := t.tel.StartSpan("server.query")
		resp := &wire.QueryResponse{MaxSims: t.srv.QueryMaxBatch(m.Sets)}
		span.End()
		t.tel.Counter("server.frames.query").Inc()
		t.tel.Counter("server.query.sets").Add(int64(len(m.Sets)))
		return wire.WriteFrame(conn, resp)
	case *wire.StatsRequest:
		t.tel.Counter("server.frames.stats").Inc()
		st := t.srv.Stats()
		return wire.WriteFrame(conn, &wire.StatsResponse{
			Images:        int64(st.Images),
			BytesReceived: st.BytesReceived,
		})
	case *wire.Hello:
		t.tel.Counter("server.frames.hello").Inc()
		feats := wire.FeatureBlocks
		if t.cfg.Cluster != nil {
			feats |= wire.FeatureCluster
		}
		return wire.WriteFrame(conn, &wire.Hello{
			Version:  wire.ProtocolVersion,
			Features: feats,
		})
	case *wire.BlockQuery:
		t.tel.Counter("server.frames.block_query").Inc()
		return wire.WriteFrame(conn, &wire.BlockQueryResponse{
			Have: t.srv.Blocks().HaveBitmap(m.Hashes),
		})
	case *wire.BlockPut:
		t.tel.Counter("server.frames.block_put").Inc()
		return t.blockPut(conn, m)
	case *wire.ManifestCommit:
		span := t.tel.StartSpan("server.manifest_commit")
		resp, err := t.manifestCommit(m)
		span.End()
		if err != nil {
			return err // durability failure: drop the connection, no ack
		}
		t.tel.Counter("server.frames.manifest_commit").Inc()
		return wire.WriteFrame(conn, resp)
	case *wire.ShardRoute:
		t.tel.Counter("server.frames.shard_route").Inc()
		return t.clusterDispatch(conn, func(h ClusterHandler) (any, error) {
			return h.HandleShardRoute(m)
		})
	case *wire.ShardQuery:
		t.tel.Counter("server.frames.shard_query").Inc()
		return t.clusterDispatch(conn, func(h ClusterHandler) (any, error) {
			return h.HandleShardQuery(m)
		})
	case *wire.ShardSync:
		t.tel.Counter("server.frames.shard_sync").Inc()
		return t.clusterDispatch(conn, func(h ClusterHandler) (any, error) {
			return h.HandleShardSync(m)
		})
	case *wire.TelemetryPush:
		t.tel.Counter("server.frames.telemetry").Inc()
		var s telemetry.Snapshot
		if err := json.Unmarshal(m.Snapshot, &s); err != nil {
			return wire.WriteFrame(conn, &wire.ErrorResponse{
				Message: "bad telemetry snapshot: " + err.Error(),
			})
		}
		t.clientTelMu.Lock()
		t.clientTel.Merge(s)
		t.clientTelMu.Unlock()
		return wire.WriteFrame(conn, &wire.TelemetryAck{})
	default:
		t.tel.Counter("server.frames.unknown").Inc()
		return wire.WriteFrame(conn, &wire.ErrorResponse{
			Message: fmt.Sprintf("unexpected message %T", msg),
		})
	}
}

// clusterDispatch routes a shard frame to the configured cluster
// handler: no handler answers with an error frame (a cluster frame hit
// a single-node server), a handler error drops the connection without
// acknowledging (durability loss on the shard server), and otherwise
// the handler's response is written as-is.
func (t *TCPServer) clusterDispatch(conn net.Conn, call func(ClusterHandler) (any, error)) error {
	if t.cfg.Cluster == nil {
		return wire.WriteFrame(conn, &wire.ErrorResponse{Message: "server: not a cluster node"})
	}
	resp, err := call(t.cfg.Cluster)
	if err != nil {
		return err
	}
	return wire.WriteFrame(conn, resp)
}

// ClientSnapshot returns the accumulated client-pushed telemetry.
func (t *TCPServer) ClientSnapshot() telemetry.Snapshot {
	t.clientTelMu.Lock()
	defer t.clientTelMu.Unlock()
	var s telemetry.Snapshot
	s.Merge(t.clientTel)
	return s
}

// DebugSnapshot is what beesd's /debug/vars serves: the server's own
// registry merged with everything clients have pushed.
func (t *TCPServer) DebugSnapshot() telemetry.Snapshot {
	s := t.tel.Snapshot()
	s.Merge(t.ClientSnapshot())
	return s
}

// nilIfEmpty normalizes a decoded empty feature set to nil (not indexed).
func nilIfEmpty(set *features.BinarySet) *features.BinarySet {
	if set.Len() == 0 {
		return nil
	}
	return set
}

// blockPut stages incoming blocks. A corrupt block (hash mismatch)
// answers with an error but keeps the connection: the bytes crossed a
// lossy link and the client will resend after re-querying. Duplicate
// blocks are acked as stored-elsewhere so resumed transfers converge.
func (t *TCPServer) blockPut(conn net.Conn, m *wire.BlockPut) error {
	var stored, dup uint32
	var bytes int64
	for i := range m.Blocks {
		b := &m.Blocks[i]
		ok, err := t.srv.StageBlock(b.Hash, b.Data)
		if errors.Is(err, ErrDurability) {
			return err // drop the connection, no ack
		}
		if err != nil {
			return wire.WriteFrame(conn, &wire.ErrorResponse{
				Message: fmt.Sprintf("block %s: %v", b.Hash.Short(), err),
			})
		}
		if ok {
			stored++
			bytes += int64(len(b.Data))
		} else {
			dup++
		}
	}
	t.tel.Counter("server.upload.bytes").Add(bytes)
	return wire.WriteFrame(conn, &wire.BlockPutResponse{Stored: stored, Dup: dup})
}

// manifestCommit finalizes a delta upload exactly once per nonce,
// through the server's one dedup window: a retried
// commit whose response was lost replays the original IDs without
// double-pinning blocks or double-counting bytes. A missing block (the
// client raced a query, or a put was shed) answers with an error; the
// client re-queries, fills the gap, and retries the commit under the
// same nonce.
func (t *TCPServer) manifestCommit(m *wire.ManifestCommit) (any, error) {
	ids, err := t.srv.CommitManifestsNonce(m.Nonce, ManifestUploads(m.Items))
	if errors.Is(err, ErrDurability) {
		return nil, err // drop the connection, no ack
	}
	if err != nil {
		// Validation failures (missing block, bytes mismatch) answer on the
		// open connection: the client re-queries, refills, and retries.
		return &wire.ErrorResponse{Message: err.Error()}, nil
	}
	t.tel.Counter("server.upload.batch_items").Add(int64(len(ids)))
	return &wire.ManifestCommitResponse{IDs: ids}, nil
}

// ManifestUploads converts manifest-committed wire items to the server's
// upload form: the one wire → server conversion, shared by the
// ManifestCommit handler and the cluster's ShardRoute handler. An empty
// feature set becomes nil (not indexed), and Meta.Bytes is the manifest
// total, which commit checks against the manifest itself.
func ManifestUploads(items []wire.ManifestItem) []ManifestUpload {
	ups := make([]ManifestUpload, len(items))
	for i := range items {
		it := &items[i]
		ups[i] = ManifestUpload{
			Set: nilIfEmpty(it.Set),
			Meta: UploadMeta{
				GroupID: it.GroupID,
				Lat:     it.Lat,
				Lon:     it.Lon,
				Bytes:   int(it.TotalBytes),
				Gain:    it.Gain,
			},
			Manifest: it.Manifest(),
		}
	}
	return ups
}

// Close stops accepting, closes active connections, and waits for the
// handler goroutines to exit.
func (t *TCPServer) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errors.New("server: already closed")
	}
	t.closed = true
	for conn := range t.conns {
		conn.Close()
	}
	t.mu.Unlock()
	var err error
	if t.ln != nil {
		err = t.ln.Close()
	}
	t.wg.Wait()
	return err
}
