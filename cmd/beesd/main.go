// Command beesd runs the BEES cloud server: it accepts feature-batch
// queries and image uploads over the wire protocol and maintains the
// similarity index used for cross-batch redundancy detection.
//
// Usage:
//
//	beesd [-addr 127.0.0.1:7700] [-wal-dir /path/to/wal]
//	      [-wal-sync record] [-wal-segment-bytes 4194304]
//	      [-snapshot-interval 0] [-idle-timeout 2m] [-max-conns 256]
//	      [-max-inflight-frames 256] [-max-inflight-bytes 67108864]
//	      [-admit-policy fifo] [-admit-low-water 0.5]
//	      [-debug-addr 127.0.0.1:7701]
//	      [-cluster-self host:port -cluster-peers host1:p1,host2:p2,...]
//	      [-cluster-shards 64] [-replication 2] [-cluster-catch-up]
//
// Images arrive only as delta uploads over content-addressed block
// transfer (see DESIGN.md, "Content-addressed block store"); the server
// refuses the retired whole-image upload frame.
//
// With -wal-dir, the server persists, and that one directory is its
// whole durable state. Every state-mutating frame (block staging,
// commits with their nonces) is appended to a checksummed write-ahead
// log there, and a commit is durable before it is acknowledged; a
// block put is acknowledged as staged, and the fsync of the commit that
// names it makes it durable. A checkpoint — a snapshot of the index,
// upload history and block store — is written into the same directory
// as "checkpoint" (the previous one kept as "checkpoint.1"), and the
// log is truncated one checkpoint behind. beesd checkpoints at startup,
// at shutdown, and every -snapshot-interval while running when that is
// nonzero, so each shutdown deletes the segments its process started
// with and the log stays bounded across restarts.
// Startup loads the last good checkpoint and replays the log tail on
// top, so a crash loses no acknowledged commit (see DESIGN.md, "Crash
// consistency & the WAL"). -wal-sync picks the durability point:
// "record" fsyncs once per acknowledged commit, "none" leaves flushing
// to the OS. -wal-segment-bytes sizes the log segments rotation seals.
// Without -wal-dir the server keeps everything in memory. Cluster mode
// refuses -wal-dir: the shard servers keep no log, so the flag would
// make durable only the node's standalone server while a restarted
// node's shards come back empty.
//
// A deployment that used the retired -state flag upgrades by moving its
// snapshot file to <wal-dir>/checkpoint: the format is the same. Every
// such deployment must move the file. Startup refuses a log that has
// been truncated while its checkpoint is missing, and names the path,
// but that check sees only a truncated log: a deployment without a WAL,
// or one whose log was never truncated, comes up empty or partial
// without an error if the file is not moved.
//
// -max-inflight-frames and -max-inflight-bytes bound the work the
// server admits at once; past either limit it answers query/upload
// frames with a Busy response instead of queueing them (see DESIGN.md,
// "Fault tolerance & overload"). -admit-policy selects what is shed:
// "fifo" (the default) refuses whatever arrives while overloaded, while
// "utility" sheds lowest-submodular-gain uploads first — past
// -admit-low-water occupancy an upload is admitted only if the SSMM
// marginal gain stamped in its metadata clears a rising quantile of
// recently offered gains (see DESIGN.md, "City-scale simulation &
// fairness-aware admission").
//
// With -cluster-peers (a comma-separated membership list) and
// -cluster-self (this node's entry in it), the server also joins a
// beesd cluster: descriptor-set index shards are placed over the
// members by rendezvous hashing, each shard is replicated on
// -replication nodes, and the node serves the shard frames
// (ShardRoute/ShardQuery/ShardSync) for the shards it owns and refuses
// the others: routers send each frame only to the shard's owners, from
// the same placement table. -cluster-shards fixes the logical
// shard count (it must agree across all nodes and routers). No shipped
// command builds a router: cluster.Router is a library type, so beesctl
// reaches a cluster node only through its standalone server, which is
// independent of the node's shards.
// -cluster-catch-up rebuilds every owned shard from a live replica at
// startup — the replacement-node flow after a machine is swapped out.
// See DESIGN.md, "Cluster routing & replication".
//
// With -debug-addr, the server additionally serves a JSON telemetry
// snapshot at /debug/vars (frames, dedup hits, rejected connections,
// per-stage spans, plus any pipeline metrics clients push — see
// DESIGN.md, "Observability") and the net/http/pprof profiling
// endpoints under /debug/pprof/. `beesctl stats` renders the snapshot.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bees/internal/cluster"
	"bees/internal/server"
	"bees/internal/telemetry"
	"bees/internal/wal"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("beesd: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7700", "listen address")
	snapEvery := flag.Duration("snapshot-interval", 0, "also checkpoint periodically while running (0 disables; needs -wal-dir)")
	idle := flag.Duration("idle-timeout", 2*time.Minute, "drop connections idle (or stalled mid-frame) this long")
	maxConns := flag.Int("max-conns", 256, "maximum simultaneous connections")
	maxFrames := flag.Int("max-inflight-frames", 0, "answer Busy past this many in-flight request frames (0 = default 256)")
	maxBytes := flag.Int64("max-inflight-bytes", 0, "answer Busy past this many announced in-flight payload bytes (0 = default 64 MiB)")
	admitPolicy := flag.String("admit-policy", "fifo", "overload shedding policy: fifo (first-come) or utility (lowest-submodular-gain uploads shed first)")
	admitLowWater := flag.Float64("admit-low-water", 0, "occupancy fraction where the utility policy starts early-shedding low-gain uploads (0 = default 0.5)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars (JSON telemetry snapshot) and /debug/pprof on this address")
	walDir := flag.String("wal-dir", "", "durable-state directory (the write-ahead log and its checkpoints): mutations are durable before they are acknowledged, and recovery replays the log tail over the last good checkpoint")
	walSync := flag.String("wal-sync", "record", "WAL sync policy: record (fsync per acknowledged commit; staged blocks ride on it) or none (flushing left to the OS)")
	walSegBytes := flag.Int64("wal-segment-bytes", 0, "rotate WAL segments at this size (0 = default 4 MiB)")
	clusterSelf := flag.String("cluster-self", "", "this node's name in -cluster-peers (cluster mode; usually its advertised host:port)")
	clusterPeers := flag.String("cluster-peers", "", "comma-separated cluster membership, every node's dialable address including this one (enables cluster mode)")
	clusterShards := flag.Int("cluster-shards", 64, "logical index shard count for the cluster's rendezvous placement (must match on every node and router)")
	replication := flag.Int("replication", cluster.DefaultReplication, "per-shard replica count in cluster mode")
	clusterCatchUp := flag.Bool("cluster-catch-up", false, "on startup, rebuild every owned shard from a live replica via ShardSync (replacement-node flow)")
	flag.Parse()
	if *snapEvery > 0 && *walDir == "" {
		return errors.New("-snapshot-interval needs -wal-dir")
	}
	if *walDir != "" && *clusterPeers != "" {
		return errors.New("-wal-dir does not make cluster mode durable: the shard servers keep no write-ahead log, so a restarted node's shards come back empty; run cluster nodes without -wal-dir")
	}
	policy, err := server.ParseAdmitPolicy(*admitPolicy)
	if err != nil {
		return err
	}
	walPolicy, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		return err
	}

	reg := telemetry.NewRegistry()
	srvCfg := server.Config{Telemetry: reg}
	var srv *server.Server
	if *walDir == "" {
		srv = server.NewWithConfig(srvCfg)
	} else {
		var rst server.RecoverStats
		srv, rst, err = server.Recover(server.RecoverConfig{
			Server: srvCfg,
			WAL: wal.Config{
				Dir:          *walDir,
				SegmentBytes: *walSegBytes,
				Policy:       walPolicy,
			},
		})
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		if st := srv.Stats(); st.Images > 0 || rst.WALRecords > 0 {
			fmt.Printf("recovered %d images from %s (checkpoint generation %d, %d WAL records replayed",
				st.Images, *walDir, rst.SnapshotGeneration, rst.WALRecords)
			if rst.WALTruncatedBytes > 0 {
				fmt.Printf(", %d torn tail bytes truncated", rst.WALTruncatedBytes)
			}
			if rst.WALBadRecords > 0 {
				fmt.Printf(", %d bad records skipped", rst.WALBadRecords)
			}
			fmt.Println(")")
		}
		// Truncation lags one checkpoint, so this one lets the next (at
		// shutdown, if no interval fires first) delete every segment the
		// process started with: the log stays bounded across restarts.
		if err := srv.Checkpoint(); err != nil {
			return fmt.Errorf("startup checkpoint: %w", err)
		}
	}
	var clusterNode *cluster.Node
	if *clusterPeers != "" {
		if *clusterSelf == "" {
			return errors.New("-cluster-peers needs -cluster-self")
		}
		table, terr := cluster.NewTable(strings.Split(*clusterPeers, ","), *clusterShards)
		if terr != nil {
			return terr
		}
		clusterNode, err = cluster.NewNode(cluster.NodeConfig{
			Self:        *clusterSelf,
			Table:       table,
			Replication: *replication,
			Server:      srvCfg,
		})
		if err != nil {
			return err
		}
		if *clusterCatchUp {
			fmt.Printf("catching up %d shards from peer replicas...\n", len(clusterNode.Shards()))
			if err := clusterNode.CatchUp(); err != nil {
				return fmt.Errorf("catch-up: %w", err)
			}
		}
		fmt.Printf("cluster node %s: %d/%d shards at replication %d\n",
			*clusterSelf, len(clusterNode.Shards()), *clusterShards, *replication)
	} else if *clusterCatchUp || *clusterSelf != "" {
		return errors.New("cluster flags need -cluster-peers")
	}
	tcpCfg := server.TCPConfig{
		IdleTimeout:       *idle,
		MaxConns:          *maxConns,
		MaxInflightFrames: *maxFrames,
		MaxInflightBytes:  *maxBytes,
		AdmitPolicy:       policy,
		AdmitLowWater:     *admitLowWater,
		Telemetry:         reg,
	}
	if clusterNode != nil {
		// Assigned only when non-nil: a typed-nil *cluster.Node in the
		// interface field would read as a configured handler.
		tcpCfg.Cluster = clusterNode
	}
	// Catch the stop signals before the address is announced: a SIGTERM
	// that arrives right after "beesd listening on" must still shut down
	// through the checkpoint below, not kill the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	tcp := server.NewTCPConfig(srv, tcpCfg)
	bound, err := tcp.Listen(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("beesd listening on %s\n", bound)

	var debugLn net.Listener
	if *debugAddr != "" {
		debugLn, err = net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listen %s: %w", *debugAddr, err)
		}
		mux := telemetry.DebugMuxFunc(tcp.DebugSnapshot)
		go func() {
			if serr := http.Serve(debugLn, mux); serr != nil && !errors.Is(serr, net.ErrClosed) {
				log.Printf("debug server stopped: %v", serr)
			}
		}()
		fmt.Printf("debug endpoint on http://%s/debug/vars\n", debugLn.Addr())
	}

	var stopAutoSave func()
	if *snapEvery > 0 {
		stopAutoSave = srv.AutoSave(*snapEvery, log.Printf)
		fmt.Printf("checkpointing into %s every %s\n", *walDir, *snapEvery)
	}

	<-sig
	st := srv.Stats()
	fmt.Printf("shutting down: %d images, %d bytes received\n", st.Images, st.BytesReceived)
	if bst := srv.Blocks().Stats(); bst.Blocks > 0 {
		fmt.Printf("block store: %d blocks, %d bytes stored, %d bytes logical (dedup saved %d)\n",
			bst.Blocks, bst.Bytes, bst.LogicalBytes, bst.LogicalBytes-bst.Bytes)
	}
	switch {
	case stopAutoSave != nil:
		stopAutoSave() // takes the final checkpoint itself
	case *walDir != "":
		if err := srv.Checkpoint(); err != nil {
			log.Printf("checkpoint failed: %v", err)
		} else {
			fmt.Printf("checkpoint saved in %s\n", *walDir)
		}
	}
	if debugLn != nil {
		debugLn.Close()
	}
	err = tcp.Close()
	if clusterNode != nil {
		clusterNode.Close()
	}
	if l := srv.WAL(); l != nil {
		if werr := l.Close(); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}
