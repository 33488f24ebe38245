// Package telemetry is the runtime observability substrate of the BEES
// prototype: a dependency-free, concurrency-safe metrics registry
// (counters, gauges, fixed-bucket histograms) plus a lightweight span API
// for per-stage tracing. The pipeline (internal/core), the network client
// (internal/client) and the TCP server (internal/server) all report
// through it; cmd/beesd serves a JSON snapshot over HTTP and
// `beesctl stats` renders it.
//
// Design constraints, in order:
//
//   - Hot-path writes never take a lock. Once a metric exists, Add/Set/
//     Observe touch only atomics, so instrumenting the upload path cannot
//     serialize it. Metric creation (first use of a name) takes the
//     registry lock once; callers on hot paths hold on to the returned
//     *Counter/*Gauge/*Histogram.
//   - Snapshot never blocks writers. It holds only the registry's read
//     lock (which get-or-create's fast path shares) while loading
//     atomics, so a scrape during heavy traffic is invisible to the
//     data path.
//   - Deterministic under test. Time enters only through the registry's
//     clock, which tests replace (SetClock, StepClock) so span durations
//     — and therefore whole snapshots — are reproducible byte-for-byte.
//   - Nil-safe. A nil *Registry and the nil metrics it hands out are
//     inert no-ops, so instrumented code needs no "is telemetry on?"
//     branches and simulations pay nothing when they don't opt in.
package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry is a valid no-op sink.
type Registry struct {
	clock atomic.Pointer[func() time.Time]

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry reading time.Now.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	r.SetClock(time.Now)
	return r
}

// SetClock replaces the registry's time source. Tests install a
// deterministic clock (see StepClock) so span durations are reproducible.
// A nil now is ignored.
func (r *Registry) SetClock(now func() time.Time) {
	if r == nil || now == nil {
		return
	}
	r.clock.Store(&now)
}

// Now reads the registry's clock (time.Now on a fresh registry, the
// wall clock on a nil registry).
func (r *Registry) Now() time.Time {
	if r != nil {
		if f := r.clock.Load(); f != nil {
			return (*f)()
		}
	}
	return time.Now()
}

// StepClock returns a deterministic clock: the first call reports start,
// and every call advances it by step. Safe for concurrent use.
func StepClock(start time.Time, step time.Duration) func() time.Time {
	var mu sync.Mutex
	next := start
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t := next
		next = next.Add(step)
		return t
	}
}

// Counter returns the named monotonic counter, creating it on first use.
// Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls reuse the original
// buckets regardless of the bounds argument). Returns nil (a no-op
// histogram) on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing int64. The nil counter is a
// no-op.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value loads the current count (0 on the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that goes up and down (battery fraction, knob
// values, active connections). The nil gauge is a no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value loads the current value (0 on the nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
