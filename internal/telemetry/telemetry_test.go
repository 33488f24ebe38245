package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"
	"time"
)

// Count returns the number of observations (0 on the nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observed values (0 on the nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("a.gauge")
	g.Set(0.25)
	g.Add(0.5)
	if got := g.Value(); got != 0.75 {
		t.Fatalf("gauge = %g, want 0.75", got)
	}

	r.Reset()
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("after Reset: counter=%d gauge=%g, want zeros", c.Value(), g.Value())
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(3)
	r.Gauge("x").Set(1)
	r.Histogram("x", SizeBuckets()).Observe(7)
	r.Reset()
	sp := r.StartSpan("stage")
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span duration = %v, want 0", d)
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 100, 100, 1000}) // dup bound collapses
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 5122 {
		t.Fatalf("count=%d sum=%d, want 5/5122", h.Count(), h.Sum())
	}
	s := r.Snapshot().Histograms["h"]
	want := []Bucket{{Le: 10, Count: 2}, {Le: 100, Count: 2}, {Le: -1, Count: 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, s.Buckets[i], want[i])
		}
	}
	if s.Mean() != 5122.0/5 {
		t.Fatalf("mean = %g", s.Mean())
	}
}

func TestSpanUsesRegistryClock(t *testing.T) {
	r := NewRegistry()
	r.SetClock(StepClock(time.Unix(0, 0), 3*time.Millisecond))
	sp := r.StartSpan("extract")
	if d := sp.End(); d != 3*time.Millisecond {
		t.Fatalf("span duration = %v, want 3ms", d)
	}
	s := r.Snapshot()
	if got := s.Counters["stage.extract.count"]; got != 1 {
		t.Fatalf("stage count = %d, want 1", got)
	}
	h := s.Histograms["stage.extract.duration_ns"]
	if h.Count != 1 || h.Sum != int64(3*time.Millisecond) {
		t.Fatalf("duration hist = %+v", h)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.SetClock(StepClock(time.Unix(100, 0), time.Millisecond))
		r.Counter("z.last").Add(9)
		r.Counter("a.first").Add(1)
		r.Gauge("m.mid").Set(0.5)
		sp := r.StartSpan("s")
		sp.End()
		return r.Snapshot()
	}
	a, err := build().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	b, err := build().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", a, b)
	}
}

func TestHandlerServesSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("server.frames.query").Add(2)
	srv := httptest.NewServer(DebugMuxFunc(r.Snapshot))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatalf("bad JSON from /debug/vars: %v\n%s", err, body)
	}
	if s.Counters["server.frames.query"] != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json; charset=utf-8" {
		t.Fatalf("content-type = %q", got)
	}
}

func TestRenderSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("g").Set(0.5)
	out := r.Snapshot().Render()
	if ia, ib := bytes.Index([]byte(out), []byte("a ")), bytes.Index([]byte(out), []byte("b ")); ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("render not sorted:\n%s", out)
	}
}

// Reset zeroes every registered metric, keeping the registrations (and
// histogram bucket layouts). Concurrent writers may land increments
// around the reset; it is not a synchronization point. Only tests reset
// a registry: a binary builds one per process and never clears it.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.sum.Store(0)
		h.n.Store(0)
	}
}
