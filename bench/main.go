// Command bench is the repository's end-to-end, layer-attributed
// benchmark: it boots the real BEES stack in-process (Recover + WAL +
// TCP endpoint on loopback, the real client, the real pipeline, and for
// the cluster three nodes behind a router), drives it with closed-loop
// clients, checks every answer against an in-process oracle, and prints
// every metric by name and unit. See bench/README.md.
//
//	go run ./bench --workload query_heavy --seed 1 --seconds 15 --trace 0
//	go run ./bench                      # all five workloads
//	go run ./bench -trace 1             # per-layer metrics, writes bench/out/trace-<workload>.json
//	go run ./bench -repeat 10 -record new.jsonl
//	go run ./bench -compare old.jsonl new.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as it is appended to the history and read back by
// -compare. The driver-facing result line is its subset resultLine.
type record struct {
	Time        string                 `json:"time"`
	Commit      string                 `json:"commit"`
	Go          string                 `json:"go"`
	NProc       int                    `json:"nproc"`
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Trace       bool                   `json:"trace"`
	Fingerprint string                 `json:"op_stream_sha256"`
	Rounds      int                    `json:"rounds"`
	Samples     int                    `json:"samples"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func endToEndValues(r *runResult) map[string]float64 {
	p := r.normal
	items := float64(p.items)
	return map[string]float64{
		"op_p50_ms":           quantile(p.opMs, 0.5),
		"op_p90_ms":           quantile(p.opMs, 0.9),
		"items_per_s":         div(items, p.wall.Seconds()),
		"wire_bytes_per_item": div(p.counts["lane.out"], items),
		"cpu_ms_per_item":     div(ms(p.cpu), items),
		"heap_mb":             median(p.heapMB),
		"setup_s":             r.setupSeconds(),
	}
}

func perLayerValues(r *runResult) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for k, v := range r.walk {
		m[k] = v
	}

	// Spans of the traced rounds, as shares of their summed op time.
	span := func(name string) spanTotals {
		if t := r.spans[name]; t != nil {
			return *t
		}
		return spanTotals{}
	}
	opMs := span("op").TotalMs
	pct := func(v float64) float64 { return 100 * div(v, opMs) }
	m["op.self_pct"] = pct(span("op").SelfMs)
	m["call.query_pct"] = pct(span("call.query").TotalMs)
	m["call.query_self_pct"] = pct(span("call.query").SelfMs)
	m["call.upload_pct"] = pct(span("call.upload").TotalMs)
	m["call.upload_self_pct"] = pct(span("call.upload").SelfMs)
	m["client.wait_pct"] = pct(span("client.wait").TotalMs)
	m["client.wait_self_pct"] = pct(span("client.wait").SelfMs)
	m["client.wait_ms_per_round_trip"] = div(span("client.wait").TotalMs, float64(span("client.wait").Count))
	for _, f := range serviceFrames {
		m["server.service_pct."+f.name] = pct(span("server.service." + f.name).TotalMs)
	}
	m["server.read_pct.block_put"] = pct(span("server.read.block_put").TotalMs)
	m["wal.fsync_pct"] = pct(span("wal.fsync").TotalMs)
	m["cluster.node_shard_query_pct"] = pct(span("cluster.node.shard_query").TotalMs)
	m["cluster.node_shard_route_pct"] = pct(span("cluster.node.shard_route").TotalMs)
	m["trace.overhead_pct"] = 100 * (div(median(r.traced.opMs), median(r.normal.opMs)) - 1)

	// Counters are on in every round, so both phases count.
	c := make(map[string]float64)
	var ops, items, wall, rounds, recovery, restarts float64
	var mallocs, allocated, gcPause float64
	var gcCycles float64
	for _, p := range []*phase{r.normal, r.traced} {
		for k, v := range p.counts {
			c[k] += v
		}
		ops += float64(p.attempted)
		items += float64(p.items)
		wall += p.wall.Seconds()
		rounds += float64(p.rounds)
		recovery += p.recovery.Seconds()
		restarts += float64(p.restarts)
		mallocs += float64(p.mallocs)
		allocated += float64(p.allocated)
		gcCycles += float64(p.gcCycles)
		gcPause += float64(p.gcPause)
	}
	// One restart's WAL replay against the time the round took to write it.
	m["server.recover_pct"] = 100 * div(div(recovery, restarts), div(wall, rounds))
	m["core.eliminated_share"] = div(c["core.eliminated"], c["core.captured"])
	m["core.upload_chunks_per_batch"] = div(c["server.frames.manifest_commit"], ops)
	m["client.round_trips_per_op"] = div(c["lane.trips"], ops)
	m["client.bytes_out_per_item"] = div(c["lane.out"], items)
	m["client.bytes_in_per_item"] = div(c["lane.in"], items)
	m["client.blocks_sent_share"] = div(c["client.blocks.sent"], c["client.blocks.sent"]+c["client.blocks.skipped"])
	m["client.retries"] = c["client.retries"]
	m["client.redials"] = c["client.dials"] // first dials happen in boot, before the counters are read
	m["client.busy_holds"] = c["client.busy_holds"]
	m["server.dedup_hits_per_op"] = div(c["server.upload.dedup_hits"], ops)
	m["server.busy_frames"] = c["server.frames.busy"]
	m["blockstore.stored_bytes_per_logical_byte"] = div(c["blocks.bytes"], c["blocks.logical_bytes"])
	m["blockstore.dedup_share"] = 0
	if c["blocks.logical_bytes"] > 0 {
		m["blockstore.dedup_share"] = 1 - m["blockstore.stored_bytes_per_logical_byte"]
	}
	m["wal.fsyncs_per_op"] = div(c["wal.syncs"], ops)
	m["wal.records_per_op"] = div(c["wal.append.records"], ops)
	m["wal.bytes_per_user_byte"] = div(c["wal.append.bytes"], c["stats.bytes"])
	m["cluster.frames_per_query"] = div(c["server.frames.shard_query"], c["calls.query"])
	m["cluster.frames_per_upload"] = div(c["server.frames.shard_route"], c["calls.upload"])
	m["cluster.candidates_returned_per_set"] = div(c["cluster.candidates"], r.traced.counts["calls.query_sets"])
	m["runtime.allocs_per_op"] = div(mallocs, ops)
	m["runtime.alloc_kb_per_op"] = div(allocated/1024, ops)
	m["runtime.gc_cycles_per_s"] = div(gcCycles, wall)
	m["runtime.gc_pause_ms_per_s"] = div(gcPause/1e6, wall)
	return m
}

// toRecord turns a run into the declared metrics: the end-to-end ones
// for a normal run, the per-layer ones for a traced run.
func toRecord(cfg config, r *runResult) (record, error) {
	defs, values := endToEnd, endToEndValues(r)
	if cfg.trace {
		defs, values = perLayer, perLayerValues(r)
	}
	rec := record{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: commit(), Go: runtime.Version(),
		NProc: runtime.NumCPU(), Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Fingerprint: r.fingerprint, Rounds: r.normal.rounds, Samples: len(r.normal.opMs),
		Attempted: r.normal.attempted, Failed: r.normal.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	if r.traced != nil {
		rec.Rounds += r.traced.rounds
		rec.Samples += len(r.traced.opMs)
		rec.Attempted += r.traced.attempted
		rec.Failed += r.traced.failed
	}
	if rec.Failed > rec.Attempted {
		rec.Failed = rec.Attempted
	}
	rec.Correct = rec.Failed == 0
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return rec, fmt.Errorf("metric %s: no finite value (%v)", d.Name, v)
		}
		rec.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return rec, nil
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printReport(w io.Writer, cfg config, r *runResult, rec record) {
	fmt.Fprintf(w, "\n== %s  seed=%d  rounds=%d  op samples=%d  measured=%.1fs  corpus=%.2fs  boot p50=%.3fs\n",
		cfg.workload, cfg.seed, rec.Rounds, rec.Samples, r.measured().Seconds(), r.corpus.Seconds(), median(r.boots))
	fmt.Fprintf(w, "   op stream sha256 %s\n", rec.Fingerprint[:16])
	if r.normal.recovery > 0 {
		fmt.Fprintf(w, "   restart: server.Recover replayed the round's WAL in %.1f ms (mean of %d)\n",
			ms(r.normal.recovery)/float64(r.normal.restarts), r.normal.restarts)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-44s %14.4f %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "   ops attempted %d, failed %d, correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, p := range []*phase{r.normal, r.traced} {
		if p != nil {
			for _, f := range p.fails {
				fmt.Fprintf(w, "   FAILED: %s\n", f)
			}
		}
	}
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	workloadFlag := flag.String("workload", "", "run one workload (default: all five): "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the workload generator; the same seed gives the same op stream")
	seconds := flag.Float64("seconds", 15, "how long each run measures; rounds of a fixed op stream repeat until it is spent")
	trace := flag.Int("trace", 0, "1 turns the decorators on in every other round, writes <out>/trace-<workload>.json and reports the per-layer metrics instead of the end-to-end ones")
	repeat := flag.Int("repeat", 1, "run each workload this many times, on seeds seed, seed+1, ..., and print each metric's median, quartiles and spread")
	recordPath := flag.String("record", "", "also write this invocation's run records to this JSONL file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two record files: bench -compare old.jsonl new.jsonl")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for trace files, history.jsonl and WAL scratch")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two record files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("needs at least 2 CPUs: the workloads run 2 closed-loop clients beside the server, found %d", runtime.NumCPU())
	}
	names := workloadNames()
	if *workloadFlag != "" {
		if _, err := newWorkload(*workloadFlag); err != nil {
			return err
		}
		names = []string{*workloadFlag}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	fmt.Printf("bees bench: %s, %d CPUs, commit %s\n", runtime.Version(), runtime.NumCPU(), commit())
	fmt.Printf("transport: real TCP over loopback (127.0.0.1:0); fsync policy: record (beesd default); every answer checked against an in-process oracle\n")
	var all []record
	for _, name := range names {
		var runs []record
		for i := 0; i < *repeat; i++ {
			cfg := config{workload: name, seed: *seed + int64(i), seconds: *seconds, trace: *trace != 0,
				sizes: fullSizes, outDir: *outDir}
			res, err := runWorkload(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			rec, err := toRecord(cfg, res)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			printReport(os.Stdout, cfg, res, rec)
			runs = append(runs, rec)
		}
		if *repeat > 1 {
			printSpread(os.Stdout, name, runs)
		}
		all = append(all, runs...)
	}
	// The trajectory: every run ever made here, one line each.
	if err := writeRecords(filepath.Join(*outDir, "history.jsonl"), os.O_APPEND, all); err != nil {
		return err
	}
	if *recordPath != "" {
		if err := writeRecords(*recordPath, os.O_TRUNC, all); err != nil {
			return err
		}
	}
	// One result line per run; with --workload the last line of the
	// output is that workload's result.
	for _, rec := range all {
		line, err := json.Marshal(resultLine{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.Name
	}
	return names
}
