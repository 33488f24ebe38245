package main

import (
	"encoding/json"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the span
// that caused it (0 for a root), Op the root op it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps the spans of the traced rounds in memory; they are
// written out once, when the workload ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	// candidates counts what the cluster nodes returned to shard queries,
	// which only the handler seam can see.
	candidates atomic.Int64

	// recording is on only while a traced round plays, so that fsyncs of
	// boot and shutdown are not set against op time.
	recording atomic.Bool

	mu    sync.Mutex
	spans []span
	conns map[string]*meterConn // client conns by local address
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), conns: make(map[string]*meterConn)}
}

func (t *tracer) newID() int64 { return t.next.Add(1) }

// record stores a finished span under a pre-drawn id (0 draws one).
func (t *tracer) record(id int64, name string, start, end time.Time, parent, op int64) {
	if !t.recording.Load() {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Name: name, Start: start.Sub(t.epoch).Nanoseconds(),
		End: end.Sub(t.epoch).Nanoseconds(), Parent: parent, Op: op}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) register(c *meterConn) {
	t.mu.Lock()
	t.conns[c.LocalAddr().String()] = c
	t.mu.Unlock()
}

func (t *tracer) peer(remote net.Addr) *meterConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.conns[remote.String()]
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// adoptOrphans gives the spans recorded below the server's socket (WAL
// fsyncs, cluster node handlers), which cannot see the request they
// serve, the server.service span that encloses them in time. Under
// group commit one fsync may serve two commits; it goes to the one that
// started last.
func adoptOrphans(spans []span) {
	var services []int
	for i := range spans {
		if strings.HasPrefix(spans[i].Name, "server.service.") {
			services = append(services, i)
		}
	}
	sort.Slice(services, func(a, b int) bool { return spans[services[a]].Start < spans[services[b]].Start })
	for i := range spans {
		o := &spans[i]
		if o.Parent != 0 || !(o.Name == "wal.fsync" || strings.HasPrefix(o.Name, "cluster.node.")) {
			continue
		}
		// First service span starting after the orphan; walk back from there.
		k := sort.Search(len(services), func(j int) bool { return spans[services[j]].Start > o.Start })
		for j := k - 1; j >= 0 && j >= k-32; j-- {
			if p := spans[services[j]]; p.End >= o.End {
				o.Parent, o.Op = p.ID, p.Op
				break
			}
		}
	}
}

// selfTimes derives, per span name, the total time and the self time:
// a span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]*spanTotals {
	children := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]*spanTotals)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.Count++
		t.TotalMs += float64(s.End-s.Start) / 1e6
		t.SelfMs += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// finish resolves parents, computes self times and writes the trace
// file; it returns the per-name totals.
func (t *tracer) finish(path, workload string, seed int64) (map[string]*spanTotals, error) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	adoptOrphans(spans)
	totals := selfTimes(spans)
	doc := struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Totals   map[string]*spanTotals `json:"totals_by_name"`
		Spans    []span                 `json:"spans"`
	}{workload, seed, totals, spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return totals, os.WriteFile(path, data, 0o644)
}
