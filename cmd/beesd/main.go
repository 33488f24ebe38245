// Command beesd runs the BEES cloud server: it accepts feature-batch
// queries and image uploads over the wire protocol and maintains the
// similarity index used for cross-batch redundancy detection.
//
// Usage:
//
//	beesd [-addr 127.0.0.1:7700] [-state /path/to/state.bees]
//	      [-snapshot-interval 0] [-idle-timeout 2m] [-max-conns 256]
//	      [-max-inflight-frames 256] [-max-inflight-bytes 67108864]
//	      [-admit-policy fifo] [-admit-low-water 0.5]
//	      [-debug-addr 127.0.0.1:7701]
//	      [-wal-dir /path/to/wal] [-wal-sync record] [-wal-segment-bytes 4194304]
//	      [-cluster-self host:port -cluster-peers host1:p1,host2:p2,...]
//	      [-cluster-shards 64] [-replication 2] [-cluster-catch-up]
//
// Images arrive only as delta uploads over content-addressed block
// transfer (see DESIGN.md, "Content-addressed block store"); the server
// refuses the retired whole-image upload frame.
//
// With -state, the server restores its index from the snapshot at
// startup and writes it back on shutdown, so redundancy detection
// carries across restarts. A nonzero -snapshot-interval additionally
// saves the snapshot periodically while running, bounding how much a
// crash (as opposed to a clean shutdown) can lose.
//
// With -wal-dir, the server additionally appends every state-mutating
// frame (block staging, commits with their nonces) to a checksummed
// write-ahead log, and a commit is durable before it is acknowledged;
// recovery replays the log tail on top of the last good snapshot — a
// crash then loses no acknowledged commit (see DESIGN.md, "Crash
// consistency & the WAL"). A block put is acknowledged as staged: the
// fsync of the commit that names it makes it durable. -wal-sync picks
// the durability point: "record" fsyncs once per acknowledged commit,
// "none" leaves flushing to the OS.
// -wal-segment-bytes sizes the log segments rotation seals.
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
// (ShardRoute/ShardQuery/ShardSync) for the shards it owns, forwarding
// misrouted frames to an owner. -cluster-shards fixes the logical
// shard count (it must agree across all nodes and routers).
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
	state := flag.String("state", "", "snapshot file (restored on start, saved on shutdown)")
	snapEvery := flag.Duration("snapshot-interval", 0, "also save the snapshot periodically while running (0 disables; needs -state)")
	idle := flag.Duration("idle-timeout", 2*time.Minute, "drop connections idle (or stalled mid-frame) this long")
	maxConns := flag.Int("max-conns", 256, "maximum simultaneous connections")
	maxFrames := flag.Int("max-inflight-frames", 0, "answer Busy past this many in-flight request frames (0 = default 256)")
	maxBytes := flag.Int64("max-inflight-bytes", 0, "answer Busy past this many announced in-flight payload bytes (0 = default 64 MiB)")
	admitPolicy := flag.String("admit-policy", "fifo", "overload shedding policy: fifo (first-come) or utility (lowest-submodular-gain uploads shed first)")
	admitLowWater := flag.Float64("admit-low-water", 0, "occupancy fraction where the utility policy starts early-shedding low-gain uploads (0 = default 0.5)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars (JSON telemetry snapshot) and /debug/pprof on this address")
	walDir := flag.String("wal-dir", "", "write-ahead log directory: mutations are durable before they are acknowledged, and recovery replays the log tail over the last good snapshot")
	walSync := flag.String("wal-sync", "record", "WAL sync policy: record (fsync per acknowledged commit; staged blocks ride on it) or none (flushing left to the OS)")
	walSegBytes := flag.Int64("wal-segment-bytes", 0, "rotate WAL segments at this size (0 = default 4 MiB)")
	clusterSelf := flag.String("cluster-self", "", "this node's name in -cluster-peers (cluster mode; usually its advertised host:port)")
	clusterPeers := flag.String("cluster-peers", "", "comma-separated cluster membership, every node's dialable address including this one (enables cluster mode)")
	clusterShards := flag.Int("cluster-shards", 64, "logical index shard count for the cluster's rendezvous placement (must match on every node and router)")
	replication := flag.Int("replication", cluster.DefaultReplication, "per-shard replica count in cluster mode")
	clusterCatchUp := flag.Bool("cluster-catch-up", false, "on startup, rebuild every owned shard from a live replica via ShardSync (replacement-node flow)")
	flag.Parse()
	if *snapEvery > 0 && *state == "" {
		return errors.New("-snapshot-interval needs -state")
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
	srv, rst, err := server.Recover(server.RecoverConfig{
		Server:       server.Config{Telemetry: reg},
		SnapshotPath: *state,
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
		fmt.Printf("recovered %d images from %s (snapshot generation %d, %d WAL records replayed",
			st.Images, *state, rst.SnapshotGeneration, rst.WALRecords)
		if rst.WALTruncatedBytes > 0 {
			fmt.Printf(", %d torn tail bytes truncated", rst.WALTruncatedBytes)
		}
		if rst.WALBadRecords > 0 {
			fmt.Printf(", %d bad records skipped", rst.WALBadRecords)
		}
		fmt.Println(")")
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
			Server:      server.Config{Telemetry: reg},
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
		stopAutoSave = srv.AutoSave(*state, *snapEvery, log.Printf)
		fmt.Printf("autosaving to %s every %s\n", *state, *snapEvery)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
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
		fmt.Printf("state saved to %s\n", *state)
	case *state != "":
		if err := srv.Checkpoint(*state); err != nil {
			log.Printf("snapshot save failed: %v", err)
		} else {
			fmt.Printf("state saved to %s\n", *state)
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
