package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// benchmarkDoc is the shape of BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkDoc {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the program emits from in step, and inside the contract's
// limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(doc.Command, want) {
		t.Errorf("command %v, want %v", doc.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(doc.Paths, want) {
		t.Errorf("paths %v, want %v", doc.Paths, want)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloadDefs) || len(doc.Workloads) > 8 {
		t.Fatalf("%d workloads declared, program has %d", len(doc.Workloads), len(workloadDefs))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range doc.Workloads {
		unique(w.Name)
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: %+v, program says %+v", i, w, workloadDefs[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, program has %d", len(doc.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range doc.EndToEnd {
		unique(m.Name)
		if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end-to-end %d: %+v, program says %+v", i, got, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end %s: bound %v or unit %q outside the contract", m.Name, m.Bound, m.Unit)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) || len(doc.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, program has %d (limit 128)", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		unique(m.Name)
		if got := (metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}); got != perLayer[i] {
			t.Errorf("per-layer %d: %+v, program says %+v", i, got, perLayer[i])
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer %s: unit %q or direction %q outside the contract", m.Name, m.Unit, m.Better)
		}
	}
}

// Fingerprints of the toy-size op streams of seed 1. They are pinned on
// amd64 only: feature extraction is floating point, and other
// architectures may fuse multiply-adds.
var pinnedStreams = map[string]string{
	"device_batch": "56aca9f1f54fac8ed61cd2a4a4cafb51e2eb0cb6490430a8e34ca9eaf366d1e8",
	"query_heavy":  "707b62a1f8a1465686443b87c0340916d109a7759f780211ab680f2f7e51b984",
	"ingest_heavy": "366e7f7d67e7f400d763f7b24fcfbbd2608f3cc054e2be383dd7f527f3876b0b",
	"mixed_rw":     "8fc5d4966a0482dc968e00819fbce8fd254964edbfa259a368286c4503d50d64",
	"cluster3":     "21eb2d0e76eae96a82b2af78e9adbfbee66fd5b9998be439ac68158c3064e088",
}

func toyRun(t *testing.T, workload string, seed int64) (config, *runResult) {
	t.Helper()
	cfg := config{workload: workload, seed: seed, trace: true, sizes: toySizes, outDir: t.TempDir()}
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, res
}

// What each workload must bypass and must exercise, on the counters and
// spans that can show it (the workloads' bypass predictions).
var (
	bypassed = map[string][]string{
		"device_batch": {"cluster.frames_per_query", "cluster.node_shard_query_pct"},
		"query_heavy": {"wal.fsyncs_per_op", "wal.fsync_pct", "call.upload_pct", "server.service_pct.block_put",
			"server.service_pct.manifest_commit", "cluster.frames_per_query", "cluster.node_shard_query_pct"},
		"ingest_heavy": {"call.query_pct", "server.service_pct.query", "core.eliminated_share",
			"cluster.frames_per_upload", "cluster.node_shard_route_pct"},
		"mixed_rw": {"cluster.frames_per_query", "cluster.frames_per_upload"},
		"cluster3": {"wal.fsyncs_per_op", "wal.fsync_pct", "server.service_pct.query",
			"server.service_pct.manifest_commit"},
	}
	exercised = map[string][]string{
		"device_batch": {"core.eliminated_share", "op.self_pct", "call.query_pct", "call.upload_pct", "wal.fsync_pct"},
		"query_heavy":  {"call.query_pct", "server.service_pct.query"},
		"ingest_heavy": {"wal.fsyncs_per_op", "wal.fsync_pct", "server.service_pct.block_put",
			"blockstore.dedup_share", "server.dedup_hits_per_op", "server.recover_pct"},
		"mixed_rw": {"call.query_pct", "call.upload_pct", "wal.fsync_pct"},
		"cluster3": {"cluster.frames_per_query", "cluster.frames_per_upload", "cluster.node_shard_query_pct",
			"server.service_pct.shard_query", "cluster.candidates_returned_per_set"},
	}
)

// TestWorkloadsEmitDeclaredMetrics runs every workload end to end at
// toy size, one round with the decorators off and one with them on:
// every answer must match its oracle, every declared metric must be
// emitted exactly once with a finite value, bypassed layers must read
// zero, and the op stream must follow the seed and nothing else.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, wd := range workloadDefs {
		t.Run(wd.Name, func(t *testing.T) {
			cfg, res := toyRun(t, wd.Name, 1)
			for _, trace := range []bool{false, true} {
				cfg.trace = trace
				rec, err := toRecord(cfg, res)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d: %v %v", trace, rec.Correct, rec.Attempted,
						rec.Failed, res.normal.fails, res.traced.fails)
				}
				defs := definedMetrics(trace)
				if len(rec.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics emitted, %d declared", trace, len(rec.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := rec.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("trace=%v: metric %s: %+v (emitted %v)", trace, d.Name, v, ok)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, v.Value)
					}
				}
				if !trace {
					continue
				}
				for _, m := range bypassed[wd.Name] {
					if v := rec.Metrics[m].Value; v != 0 {
						t.Errorf("%s = %v, want 0: the workload bypasses that layer", m, v)
					}
				}
				for _, m := range exercised[wd.Name] {
					if v := rec.Metrics[m].Value; v <= 0 {
						t.Errorf("%s = %v, want > 0: the workload exercises that layer", m, v)
					}
				}
			}
			if _, err := os.Stat(cfg.outDir + "/trace-" + wd.Name + ".json"); err != nil {
				t.Errorf("traced run wrote no trace file: %v", err)
			}

			again, _ := newWorkload(wd.Name)
			again.prepare(1, toySizes)
			if got := fingerprintOf(again); got != res.fingerprint {
				t.Errorf("seed 1 gave two op streams: %s and %s", res.fingerprint, got)
			}
			if runtime.GOARCH == "amd64" && res.fingerprint != pinnedStreams[wd.Name] {
				t.Errorf("op stream of seed 1 is %s, pinned %s", res.fingerprint, pinnedStreams[wd.Name])
			}
			other, _ := newWorkload(wd.Name)
			other.prepare(2, toySizes)
			if fingerprintOf(other) == res.fingerprint {
				t.Error("seeds 1 and 2 gave the same op stream")
			}
		})
	}
}

// TestWrongAnswerIsAFailedOp plants a wrong oracle answer and expects it
// in the failure count, not ignored.
func TestWrongAnswerIsAFailedOp(t *testing.T) {
	w := &queryHeavy{}
	w.prepare(1, toySizes)
	for k := range w.frames {
		for range w.frames[k] {
			w.want[k] = append(w.want[k], make([]float64, frameSets)) // all-zero similarities
		}
	}
	w.want[0][0] = nil // and one answer of the wrong length
	res := &runResult{normal: newPhase(nil)}
	if err := runRound(w, res.normal, t.TempDir(), res); err != nil {
		t.Fatal(err)
	}
	if res.normal.failed == 0 {
		t.Fatal("answers that differ from the oracle's were not counted as failed ops")
	}
	rec, err := toRecord(config{workload: "query_heavy"}, res)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed == 0 || rec.Failed > rec.Attempted {
		t.Errorf("correct=%v failed=%d attempted=%d after a planted wrong answer", rec.Correct, rec.Failed, rec.Attempted)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0].
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
	if got := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); math.Abs(got-27.5/13.5) > 1e-12 {
		t.Errorf("spread %v, want %v", got, 27.5/13.5)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{"op_p50_ms", "ms", lower, 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name string
		next []float64
		want string
	}{
		{"same", []float64{100, 100.5, 99.5, 101, 100}, "ok"},
		{"slower past the bound", []float64{115, 116, 114, 115, 117}, "REGRESSED"},
		{"faster in every run", []float64{90, 91, 89, 92, 90}, "better"},
		{"too noisy to tell", []float64{80, 125, 100, 70, 130}, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(d, steady, c.next); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	up := metricDef{"items_per_s", "1/s", higher, 0.10}
	if got := verdict(up, steady, []float64{85, 86, 84, 85, 87}); got != "REGRESSED" {
		t.Errorf("throughput down 15%%: verdict %q, want REGRESSED", got)
	}
}
