package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"bees/internal/dataset"
	"bees/internal/features"
	"bees/internal/server"
	"bees/internal/telemetry"
)

// workload is one closed-loop traffic mix. The runner calls prepare
// once, then boot → play → check → stop for each round.
type workload interface {
	// prepare builds the seeded inputs. Its wall time is part of setup_s.
	prepare(seed int64, sz sizes)
	// fingerprint writes the op stream prepare built.
	fingerprint(h hash.Hash)
	// boot brings up a fresh stack and warms it (index, first dial,
	// Hello). Its wall time is part of setup_s.
	boot(e *env) error
	// gauges reads the stack's counters; the runner takes the difference
	// across play.
	gauges() map[string]float64
	// play issues the round's op stream; only this is measured.
	play(p *phase)
	// check compares every answer of the round with the in-process
	// oracle, counting mismatches as failed ops.
	check(p *phase)
	// stop tears the stack down.
	stop()
	// walkInput hands the layer walk a sample of the workload's inputs:
	// a batch of images and the sets the corpus extracted.
	walkInput() ([]*dataset.Image, []*features.BinarySet)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "device_batch":
		return &deviceBatch{}, nil
	case "query_heavy":
		return &queryHeavy{}, nil
	case "ingest_heavy":
		return &ingestHeavy{}, nil
	case "mixed_rw":
		return &mixedRW{}, nil
	case "cluster3":
		return &cluster3{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fingerprintOf hashes the op stream a prepared workload will issue.
func fingerprintOf(w workload) string {
	h := sha256.New()
	w.fingerprint(h)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// phase accumulates the rounds run one way: decorators off, or on.
type phase struct {
	tr *tracer // nil for the decorators-off phase

	mu        sync.Mutex
	opMs      []float64
	items     int
	attempted int
	failed    int
	fails     []string // the first few failures, for the report
	counts    map[string]float64

	rounds    int
	wall, cpu time.Duration
	restarts  int // rounds that ended with a restart check
	recovery  time.Duration
	heapMB    []float64
	mallocs   uint64
	allocated uint64
	gcCycles  uint32
	gcPause   uint64
}

func newPhase(tr *tracer) *phase { return &phase{tr: tr, counts: make(map[string]float64)} }

// op times fn as one closed-loop operation carrying the given number of
// items (images or sets) on the given client lanes.
func (p *phase) op(items int, fn func(), lanes ...*lane) {
	var id int64
	if p.tr != nil {
		id = p.tr.newID()
		for _, l := range lanes {
			l.root.Store(id)
			l.cur.Store(id)
		}
	}
	start := time.Now()
	fn()
	end := time.Now()
	if p.tr != nil {
		p.tr.record(id, "op", start, end, 0, id)
	}
	p.mu.Lock()
	p.opMs = append(p.opMs, float64(end.Sub(start).Nanoseconds())/1e6)
	p.items += items
	p.attempted++
	p.mu.Unlock()
}

// fail counts one failed op: a transport error, a refusal that outlived
// its retries, or an answer that differs from the oracle's.
func (p *phase) fail(format string, args ...any) {
	p.mu.Lock()
	p.failed++
	if len(p.fails) < 5 {
		p.fails = append(p.fails, fmt.Sprintf(format, args...))
	}
	p.mu.Unlock()
}

func (p *phase) count(name string, v float64) {
	p.mu.Lock()
	p.counts[name] += v
	p.mu.Unlock()
}

// collect sums the named counters of the registries and adds the lanes'
// byte counts and the servers' upload and block-store totals.
func collect(regs []*telemetry.Registry, lanes []*lane, servers []*server.Server) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range regs {
		for name, v := range r.Snapshot().Counters {
			out[name] += float64(v)
		}
	}
	for _, l := range lanes {
		out["lane.out"] += float64(l.out.Load())
		out["lane.in"] += float64(l.in.Load())
		out["lane.trips"] += float64(l.trips.Load())
	}
	for _, s := range servers {
		bs := s.Blocks().Stats()
		out["blocks.bytes"] += float64(bs.Bytes)
		out["blocks.logical_bytes"] += float64(bs.LogicalBytes)
		out["stats.bytes"] += float64(s.Stats().BytesReceived)
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	outDir   string // trace files, history, and the scratch directory the WAL dirs live in
}

// runResult is what one run measured.
type runResult struct {
	normal, traced *phase
	corpus         time.Duration
	corpusHeap     uint64    // live heap once the corpus is built: the benchmark's own share
	boots          []float64 // seconds
	spans          map[string]*spanTotals
	walk           map[string]float64
	fingerprint    string
}

// setupSeconds is corpus generation + extraction, paid once per run,
// plus the median boot (fresh WAL dir, Recover, warm index, listen,
// dial, Hello), paid once per round.
func (r *runResult) setupSeconds() float64 { return r.corpus.Seconds() + median(r.boots) }

func runWorkload(cfg config) (*runResult, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.outDir, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	res := &runResult{normal: newPhase(nil)}
	start := time.Now()
	w.prepare(cfg.seed, cfg.sizes)
	res.corpus = time.Since(start)
	var mem runtime.MemStats
	runtime.GC()
	runtime.GC() // twice: the extraction arenas sit in sync.Pools, which survive one cycle
	runtime.ReadMemStats(&mem)
	res.corpusHeap = mem.HeapAlloc
	res.fingerprint = fingerprintOf(w)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		res.traced = newPhase(tr)
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for round := 0; round < cfg.sizes.MinRounds || res.measured() < budget; round++ {
		// In a traced run the rounds alternate, so both phases see the
		// same op stream under the same machine conditions.
		p := res.normal
		if cfg.trace && round%2 == 1 {
			p = res.traced
		}
		if err := runRound(w, p, scratch, res); err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
	}
	if cfg.trace {
		res.traced.counts["cluster.candidates"] = float64(tr.candidates.Load())
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if res.spans, err = tr.finish(path, cfg.workload, cfg.seed); err != nil {
			return nil, err
		}
		imgs, sets := w.walkInput()
		if res.walk, err = layerWalk(imgs, sets, scratch); err != nil {
			return nil, fmt.Errorf("layer walk: %w", err)
		}
	}
	return res, nil
}

func (r *runResult) measured() time.Duration {
	d := r.normal.wall
	if r.traced != nil {
		d += r.traced.wall
	}
	return d
}

func runRound(w workload, p *phase, scratch string, res *runResult) error {
	e := &env{dir: scratch, tr: p.tr}
	start := time.Now()
	if err := w.boot(e); err != nil {
		w.stop()
		return fmt.Errorf("boot: %w", err)
	}
	res.boots = append(res.boots, time.Since(start).Seconds())

	var before, after runtime.MemStats
	g0 := w.gauges()
	runtime.ReadMemStats(&before)
	if p.tr != nil {
		p.tr.recording.Store(true)
	}
	cpu0, t0 := cpuTime(), time.Now()
	w.play(p)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	if p.tr != nil {
		p.tr.recording.Store(false)
	}
	runtime.ReadMemStats(&after)
	for name, v := range w.gauges() {
		p.counts[name] += v - g0[name]
	}
	p.rounds++
	p.wall += wall
	p.cpu += cpu
	p.mallocs += after.Mallocs - before.Mallocs
	p.allocated += after.TotalAlloc - before.TotalAlloc
	p.gcCycles += after.NumGC - before.NumGC
	p.gcPause += after.PauseTotalNs - before.PauseTotalNs

	// Live heap of the round's state (index, block store, connections),
	// still up, over what the corpus alone holds.
	runtime.GC()
	runtime.ReadMemStats(&after)
	p.heapMB = append(p.heapMB, (float64(after.HeapAlloc)-float64(res.corpusHeap))/(1<<20))

	w.check(p)
	w.stop()
	// Start every round from the same heap.
	runtime.GC()
	return nil
}
