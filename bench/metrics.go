package main

import (
	"math"
	"sort"
)

// metricDef declares one metric. The tables below are the benchmark's
// contract: BENCHMARK.json repeats them (bench_test.go keeps the two in
// step) and bench/README.md explains which end-to-end metric each layer
// metric should move, on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; "op" and "item" are defined per workload (see
// workloadDefs).
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", lower, 0.18},
	{"op_p90_ms", "ms", lower, 0.22},
	{"items_per_s", "1/s", higher, 0.18},
	{"wire_bytes_per_item", "B", lower, 0.06},
	{"cpu_ms_per_item", "ms", lower, 0.18},
	{"heap_mb", "MB", lower, 0.10},
	{"setup_s", "s", lower, 0.25},
}

// wireFrames are the frame kinds the layer walk encodes and decodes.
var wireFrames = []string{
	"query", "query_resp", "block_query", "block_put", "manifest_commit",
	"upload_batch", "shard_query", "shard_query_resp", "shard_route",
}

// perLayer lists the layer metrics of a traced run. A time (ms, us, ns)
// is a unit cost from the layer walk and is measured on every workload;
// what a workload actually spent in a layer is a share of its summed op
// time (%) or a count per op, and reads 0 where the workload bypasses
// the layer.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Layer walk: unit costs on the workload's own inputs.
		{Name: "features.extract_ms_per_image", Unit: "ms", Better: lower},
		{Name: "features.extract_allocs_per_image", Unit: "count", Better: lower},
		{Name: "features.match_us_per_pair", Unit: "us", Better: lower},
		{Name: "features.prepare_us_per_set", Unit: "us", Better: lower},
		{Name: "imagelib.compress_ms_per_image", Unit: "ms", Better: lower},
		{Name: "core.extract_all_ms_per_batch", Unit: "ms", Better: lower},
		{Name: "core.graph_ms_per_batch", Unit: "ms", Better: lower},
		{Name: "submod.summarize_ms_per_batch", Unit: "ms", Better: lower},
		{Name: "client.synth_manifest_ms_per_image", Unit: "ms", Better: lower},
		{Name: "server.query_ms_per_set", Unit: "ms", Better: lower},
		{Name: "server.commit_ms_per_image", Unit: "ms", Better: lower},
		{Name: "server.commit_ms_per_image.nowal", Unit: "ms", Better: lower},
		{Name: "server.admit_us", Unit: "us", Better: lower},
		{Name: "server.recover_records_per_s", Unit: "1/s", Better: higher},
		{Name: "server.snapshot_ms_per_kimage", Unit: "ms", Better: lower},
		{Name: "index.add_ms_per_image", Unit: "ms", Better: lower},
		{Name: "index.add_allocs_per_image", Unit: "count", Better: lower},
		{Name: "index.query_ms_per_set", Unit: "ms", Better: lower},
		{Name: "index.query_allocs_per_set", Unit: "count", Better: lower},
		{Name: "index.candidates_per_set", Unit: "count", Better: lower},
		{Name: "index.query_ms_per_set.readers", Unit: "ms", Better: lower},
		{Name: "index.query_ms_per_set.with_writer", Unit: "ms", Better: lower},
		{Name: "blockstore.put_us_per_block", Unit: "us", Better: lower},
		{Name: "blockstore.have_us_per_hash", Unit: "us", Better: lower},
		{Name: "blockstore.commit_us_per_manifest", Unit: "us", Better: lower},
		{Name: "wal.fsync_ms_p50", Unit: "ms", Better: lower},
		{Name: "wal.append_us_per_record", Unit: "us", Better: lower},
		{Name: "wal.append_ms.appenders", Unit: "ms", Better: lower},
		{Name: "wal.replay_records_per_s", Unit: "1/s", Better: higher},
		{Name: "cluster.route_ns_per_item", Unit: "ns", Better: lower},
		{Name: "telemetry.query_overhead_pct", Unit: "%", Better: lower},
		{Name: "telemetry.span_ns", Unit: "ns", Better: lower},

		// Traced rounds: where the workload's op time went.
		{Name: "op.self_pct", Unit: "%", Better: lower},
		{Name: "call.query_pct", Unit: "%", Better: lower},
		{Name: "call.query_self_pct", Unit: "%", Better: lower},
		{Name: "call.upload_pct", Unit: "%", Better: lower},
		{Name: "call.upload_self_pct", Unit: "%", Better: lower},
		{Name: "client.wait_pct", Unit: "%", Better: lower},
		{Name: "client.wait_self_pct", Unit: "%", Better: lower},
		{Name: "client.wait_ms_per_round_trip", Unit: "ms", Better: lower},
		{Name: "server.read_pct.block_put", Unit: "%", Better: lower},
		{Name: "server.recover_pct", Unit: "%", Better: lower},
		{Name: "wal.fsync_pct", Unit: "%", Better: lower},
		{Name: "cluster.node_shard_query_pct", Unit: "%", Better: lower},
		{Name: "cluster.node_shard_route_pct", Unit: "%", Better: lower},
		{Name: "trace.overhead_pct", Unit: "%", Better: lower},

		// Counters, read in every round, traced or not.
		{Name: "core.eliminated_share", Unit: "share", Better: higher},
		{Name: "core.upload_chunks_per_batch", Unit: "count", Better: lower},
		{Name: "client.round_trips_per_op", Unit: "count", Better: lower},
		{Name: "client.bytes_out_per_item", Unit: "B", Better: lower},
		{Name: "client.bytes_in_per_item", Unit: "B", Better: lower},
		{Name: "client.blocks_sent_share", Unit: "share", Better: lower},
		{Name: "client.retries", Unit: "count", Better: lower},
		{Name: "client.redials", Unit: "count", Better: lower},
		{Name: "client.busy_holds", Unit: "count", Better: lower},
		{Name: "server.dedup_hits_per_op", Unit: "count", Better: lower},
		{Name: "server.busy_frames", Unit: "count", Better: lower},
		{Name: "blockstore.dedup_share", Unit: "share", Better: higher},
		{Name: "blockstore.stored_bytes_per_logical_byte", Unit: "share", Better: lower},
		{Name: "wal.fsyncs_per_op", Unit: "count", Better: lower},
		{Name: "wal.records_per_op", Unit: "count", Better: lower},
		{Name: "wal.bytes_per_user_byte", Unit: "share", Better: lower},
		{Name: "cluster.frames_per_query", Unit: "count", Better: lower},
		{Name: "cluster.frames_per_upload", Unit: "count", Better: lower},
		{Name: "cluster.candidates_returned_per_set", Unit: "count", Better: lower},
		{Name: "runtime.allocs_per_op", Unit: "count", Better: lower},
		{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: lower},
		{Name: "runtime.gc_cycles_per_s", Unit: "1/s", Better: lower},
		{Name: "runtime.gc_pause_ms_per_s", Unit: "ms/s", Better: lower},
	}
	for _, f := range wireFrames {
		defs = append(defs,
			metricDef{Name: "wire.encode_us." + f, Unit: "us", Better: lower},
			metricDef{Name: "wire.decode_us." + f, Unit: "us", Better: lower},
			metricDef{Name: "wire.decode_allocs." + f, Unit: "count", Better: lower})
	}
	for _, f := range serviceFrames {
		defs = append(defs, metricDef{Name: "server.service_pct." + f.name, Unit: "%", Better: lower})
	}
	return defs
}

// workloadDef names a workload and states why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"device_batch", "closed loop, 1 device: ProcessBatch of 16 images over TCP to a WAL-backed node; device layers (features, imagelib, core, submod) do most of the work, server changes should barely move it"},
	{"query_heavy", "closed loop, 2 clients: 8-set query frames on a warm index, read-only; index and features matching do the work, wal and blockstore none; read-path lock and parallelism changes show here"},
	{"ingest_heavy", "closed loop, 2 clients: 8-image delta uploads, 40% of content shared across clients, 5% replays, then a restart; wire, blockstore, wal fsync and index.Add do the work, no queries"},
	{"mixed_rw", "closed loop, 1 reader beside 1 writer in lockstep on a warm index: a read-path win that costs writers, or the reverse, shows here and nowhere else"},
	{"cluster3", "closed loop, 1 router client: 3 nodes, 8 shards, R=2 over loopback; router fan-out, shard frames and candidate merge, code no single-node workload touches"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the acceptance check of the benchmark uses for run-to-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		v := median(xs)
		return v, v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
