package server

import (
	"encoding/json"
	"testing"
	"time"

	"bees/internal/features"
	"bees/internal/telemetry"
	"bees/internal/wire"
)

func listenTCPWithTelemetry(t *testing.T, cfg TCPConfig) (*TCPServer, *telemetry.Registry, string) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	// The server shares the registry, as in beesd: dedup hits are counted
	// by the commit path, frames by the TCP layer.
	srv := NewWithConfig(Config{Telemetry: reg})
	tcp := NewTCPConfig(srv, cfg)
	addr, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcp.Close() })
	return tcp, reg, addr.String()
}

// TestServerTelemetryCounters drives one of each frame type through the
// wire path and checks the registry counted them.
func TestServerTelemetryCounters(t *testing.T) {
	_, reg, addr := listenTCPWithTelemetry(t, TCPConfig{})
	conn := dialRaw(t, addr)

	set := &features.BinarySet{Descriptors: []features.Descriptor{{1, 2, 3, 4}}}
	request(t, conn, &wire.QueryRequest{Sets: []*features.BinarySet{set}})
	it := stagedOne(t, conn, 2048)
	it.Set = set
	up := uploadOne(77, it)
	request(t, conn, up)
	request(t, conn, up) // retry replay: dedup hit, not a second store
	request(t, conn, &wire.StatsRequest{})
	// A response type is not a valid request: counted as unknown.
	if _, ok := request(t, conn, &wire.QueryResponse{}).(*wire.ErrorResponse); !ok {
		t.Fatal("response-typed request should produce an ErrorResponse")
	}

	s := reg.Snapshot()
	want := map[string]int64{
		"server.frames.total":           6,
		"server.frames.query":           1,
		"server.frames.block_put":       1,
		"server.frames.manifest_commit": 2,
		"server.frames.stats":           1,
		"server.frames.unknown":         1,
		"server.query.sets":             1,
		"server.upload.dedup_hits":      1,
		"server.upload.bytes":           2048, // deduped retry adds nothing
		"server.conns.accepted":         1,
	}
	for name, v := range want {
		if got := s.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if c := s.Counters["stage.server.query.count"]; c != 1 {
		t.Errorf("query span count = %d, want 1", c)
	}
}

// TestRejectedConnectionCounted checks the connection-cap rejection shows
// up in telemetry.
func TestRejectedConnectionCounted(t *testing.T) {
	_, reg, addr := listenTCPWithTelemetry(t, TCPConfig{MaxConns: 1})
	first := dialRaw(t, addr)
	// Make sure the first connection is registered before dialing again.
	request(t, first, &wire.StatsRequest{})

	dialRaw(t, addr)
	deadline := time.After(3 * time.Second)
	for reg.Counter("server.conns.rejected").Value() == 0 {
		select {
		case <-deadline:
			t.Fatal("rejected connection never counted")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestTelemetryPushMerging checks client-pushed snapshots accumulate and
// surface through DebugSnapshot next to the server's own metrics.
func TestTelemetryPushMerging(t *testing.T) {
	tcp, _, addr := listenTCPWithTelemetry(t, TCPConfig{})
	conn := dialRaw(t, addr)

	push := func(s telemetry.Snapshot) {
		t.Helper()
		body, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := request(t, conn, &wire.TelemetryPush{Snapshot: body}).(*wire.TelemetryAck); !ok {
			t.Fatal("push not acknowledged")
		}
	}
	client := telemetry.NewRegistry()
	client.SetClock(telemetry.StepClock(time.Unix(0, 0), time.Millisecond))
	client.Counter("pipeline.batches").Inc()
	client.Gauge("eaas.ebat").Set(0.5)
	sp := client.StartSpan("afe.extract")
	sp.End()

	push(client.Snapshot())
	push(client.Snapshot()) // second client/run accumulates

	s := tcp.DebugSnapshot()
	if got := s.Counters["pipeline.batches"]; got != 2 {
		t.Errorf("merged pipeline.batches = %d, want 2", got)
	}
	if got := s.Gauges["eaas.ebat"]; got != 0.5 {
		t.Errorf("merged eaas.ebat = %g, want 0.5", got)
	}
	h := s.Histograms["stage.afe.extract.duration_ns"]
	if h.Count != 2 || h.Sum != 2*int64(time.Millisecond) {
		t.Errorf("merged span histogram = %+v", h)
	}
	// Server-side counters live in the same document.
	if got := s.Counters["server.frames.telemetry"]; got != 2 {
		t.Errorf("server.frames.telemetry = %d, want 2", got)
	}
}

// TestBadTelemetryPushRejected checks a malformed snapshot gets an error
// response without wedging the connection.
func TestBadTelemetryPushRejected(t *testing.T) {
	tcp, _, addr := listenTCPWithTelemetry(t, TCPConfig{})
	conn := dialRaw(t, addr)
	resp := request(t, conn, &wire.TelemetryPush{Snapshot: []byte("{not json")})
	if _, ok := resp.(*wire.ErrorResponse); !ok {
		t.Fatalf("got %T, want ErrorResponse", resp)
	}
	// The connection still serves requests afterwards.
	if _, ok := request(t, conn, &wire.StatsRequest{}).(*wire.StatsResponse); !ok {
		t.Fatal("connection unusable after rejected push")
	}
	if n := len(tcp.ClientSnapshot().Counters); n != 0 {
		t.Fatalf("bad push merged anyway: %d counters", n)
	}
}
