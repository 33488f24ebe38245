package server

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"bees/internal/features"
	"bees/internal/telemetry"
	"bees/internal/wal"
	"bees/internal/wire"
)

func listenTCP(t *testing.T, cfg TCPConfig) (*Server, *TCPServer, string) {
	t.Helper()
	srv := NewDefault()
	tcp := NewTCPConfig(srv, cfg)
	addr, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcp.Close() })
	return srv, tcp, addr.String()
}

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// request performs one raw wire exchange on conn.
func request(t *testing.T, conn net.Conn, msg any) any {
	t.Helper()
	if err := wire.WriteFrame(conn, msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return resp
}

// TestIdleConnectionDropped checks a connection that goes quiet — or
// stalls mid-frame — is dropped after the idle timeout instead of
// pinning a handler goroutine forever.
func TestIdleConnectionDropped(t *testing.T) {
	_, _, addr := listenTCP(t, TCPConfig{IdleTimeout: 100 * time.Millisecond})
	conn := dialRaw(t, addr)
	// Half a header: the server is now blocked mid-frame.
	if _, err := conn.Write([]byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("stalled connection survived the idle timeout")
	}
}

// TestConnectionLimit checks connections beyond MaxConns are rejected
// while the earlier ones keep working.
func TestConnectionLimit(t *testing.T) {
	_, _, addr := listenTCP(t, TCPConfig{MaxConns: 1, IdleTimeout: 5 * time.Second})
	first := dialRaw(t, addr)
	// A round trip guarantees the server has registered the connection.
	if _, ok := request(t, first, &wire.StatsRequest{}).(*wire.StatsResponse); !ok {
		t.Fatal("stats request failed")
	}

	second := dialRaw(t, addr)
	second.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := second.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection beyond the limit was served")
	}
	// The first connection must be unaffected.
	if _, ok := request(t, first, &wire.StatsRequest{}).(*wire.StatsResponse); !ok {
		t.Fatal("first connection broken by the rejected one")
	}
	// Closing it frees the slot.
	first.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		third, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(third, &wire.StatsRequest{}); err == nil {
			third.SetReadDeadline(time.Now().Add(time.Second))
			if _, err := wire.ReadFrame(third); err == nil {
				third.Close()
				return
			}
		}
		third.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after first connection closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stagedOne stages one synthetic blob of size bytes over conn and
// returns its manifest item (see stagedManifestItems).
func stagedOne(t *testing.T, conn net.Conn, size int) wire.ManifestItem {
	t.Helper()
	items, _ := stagedManifestItems(t, conn, size)
	return items[0]
}

// uploadOne is a one-image upload frame for an already staged item.
func uploadOne(nonce uint64, it wire.ManifestItem) *wire.ManifestCommit {
	return &wire.ManifestCommit{Nonce: nonce, Items: []wire.ManifestItem{it}}
}

// uploadID performs one upload exchange and returns the single ID.
func uploadID(t *testing.T, conn net.Conn, up *wire.ManifestCommit) int64 {
	t.Helper()
	resp, ok := request(t, conn, up).(*wire.ManifestCommitResponse)
	if !ok || len(resp.IDs) != 1 {
		t.Fatalf("no one-ID upload response: %+v", resp)
	}
	return resp.IDs[0]
}

// TestUploadNonceDedup checks a retried upload (same nonce) is applied
// once: the replay gets the original ID and the counters move once.
func TestUploadNonceDedup(t *testing.T) {
	srv, _, addr := listenTCP(t, TCPConfig{})
	conn := dialRaw(t, addr)
	up := uploadOne(424242, stagedOne(t, conn, 100))

	first := uploadID(t, conn, up)
	// Same nonce again — as a client whose response was lost would send,
	// here even over a second connection.
	conn2 := dialRaw(t, addr)
	second := uploadID(t, conn2, up)
	if first != second {
		t.Fatalf("retry got ID %d, original got %d", second, first)
	}
	if st := srv.Stats(); st.Images != 1 || st.BytesReceived != 100 {
		t.Fatalf("retry double-counted: %+v", st)
	}

	// A different nonce is a different upload.
	up.Nonce = 555
	if third := uploadID(t, conn, up); third == first {
		t.Fatal("distinct nonce deduplicated")
	}
	if st := srv.Stats(); st.Images != 2 {
		t.Fatalf("second upload not applied: %+v", st)
	}
}

// TestUploadNoNonceNotDeduped checks nonce 0 (protection disabled)
// keeps the old semantics: every request stores a fresh image.
func TestUploadNoNonceNotDeduped(t *testing.T) {
	srv, _, addr := listenTCP(t, TCPConfig{})
	conn := dialRaw(t, addr)
	up := uploadOne(0, stagedOne(t, conn, 10))
	if uploadID(t, conn, up) == uploadID(t, conn, up) {
		t.Fatal("nonce-less uploads were deduplicated")
	}
	if st := srv.Stats(); st.Images != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestEmptyBatchNonceDoesNotPoisonUpload is a regression test for a
// remote crash: an empty upload frame used to record a zero-ID
// slice under its nonce, and a later one-image upload reusing that nonce
// indexed ids[0] and panicked the whole server. The empty batch must not
// claim the nonce, and the follow-up upload must store fresh.
func TestEmptyBatchNonceDoesNotPoisonUpload(t *testing.T) {
	srv, _, addr := listenTCP(t, TCPConfig{})
	conn := dialRaw(t, addr)

	batch, ok := request(t, conn, &wire.ManifestCommit{Nonce: 99}).(*wire.ManifestCommitResponse)
	if !ok {
		t.Fatal("no response to empty batch")
	}
	if len(batch.IDs) != 0 {
		t.Fatalf("empty batch assigned IDs: %v", batch.IDs)
	}

	up := uploadOne(99, stagedOne(t, conn, 10))
	id := uploadID(t, conn, up)
	if st := srv.Stats(); st.Images != 1 || st.BytesReceived != 10 {
		t.Fatalf("upload after empty batch not applied: %+v", st)
	}
	// The upload's own retry semantics must still work on that nonce.
	if retry := uploadID(t, conn, up); retry != id {
		t.Fatalf("retry got ID %d, original got %d", retry, id)
	}
	if st := srv.Stats(); st.Images != 1 {
		t.Fatalf("retry double-counted: %+v", st)
	}
}

// TestDedupWindowBounded checks the nonce memory is FIFO-bounded so a
// hostile client cannot grow it without limit.
func TestDedupWindowBounded(t *testing.T) {
	d := newUploadDedup(3)
	for n := uint64(1); n <= 5; n++ {
		d.record(n, []int64{int64(n)})
	}
	if _, ok := d.ids[1]; ok {
		t.Fatal("oldest nonce not evicted")
	}
	if _, ok := d.ids[2]; ok {
		t.Fatal("second-oldest nonce not evicted")
	}
	for n := uint64(3); n <= 5; n++ {
		if ids, ok := d.ids[n]; !ok || len(ids) != 1 || ids[0] != int64(n) {
			t.Fatalf("nonce %d lost from the window", n)
		}
	}
}

// busyFrame encodes msg and returns (header, payload) split at the wire
// header boundary, so tests can stall a server mid-payload.
func splitFrame(t *testing.T, msg any) (header, payload []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	return full[:5], full[5:]
}

// TestLoadSheddingBusy drives the server over its in-flight byte
// high-water mark and checks the overflow frame is answered with
// BusyResponse within one frame time — while the stalled frame that
// caused the overload still completes, and the shed client's retry
// succeeds once the load clears.
func TestLoadSheddingBusy(t *testing.T) {
	tel := telemetry.NewRegistry()
	srv, tcp, addr := listenTCP(t, TCPConfig{
		MaxInflightBytes: 1024,
		IdleTimeout:      5 * time.Second,
		Telemetry:        tel,
	})

	// Both uploads' blocks are staged while the server is idle. A's blob
	// is large enough (64 blocks) that its commit frame's manifest alone
	// announces over 2 KiB.
	connA, connB := dialRaw(t, addr), dialRaw(t, addr)
	items, _ := stagedManifestItems(t, connA, 64*512, 1)
	small := uploadOne(2, items[1])

	// Connection A announces a large upload but stalls after the header:
	// its announced bytes are now in flight, holding the server above the
	// 1 KiB high-water mark.
	header, payload := splitFrame(t, uploadOne(1, items[0]))
	if len(payload) <= 2048 {
		t.Fatalf("stalled frame announces only %d bytes", len(payload))
	}
	if _, err := connA.Write(header); err != nil {
		t.Fatal(err)
	}
	// Give the server a moment to charge A's header.
	deadline := time.Now().Add(2 * time.Second)
	var busy *wire.BusyResponse
	for {
		resp := request(t, connB, small)
		if b, ok := resp.(*wire.BusyResponse); ok {
			busy = b
			break
		}
		// A's header may not have landed yet; the request was applied, so
		// retry with the same nonce until shedding kicks in.
		if time.Now().After(deadline) {
			t.Fatal("server never shed load while 2 KiB was in flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if busy.RetryAfterMs != 1000 {
		t.Fatalf("RetryAfterMs = %d, want 1000", busy.RetryAfterMs)
	}
	// Observability traffic must NOT be shed while overloaded.
	if _, ok := request(t, connB, &wire.StatsRequest{}).(*wire.StatsResponse); !ok {
		t.Fatal("stats request shed during overload")
	}
	if got := tel.Snapshot().Counters["server.frames.busy"]; got < 1 {
		t.Fatalf("server.frames.busy = %d, want >= 1", got)
	}

	// The stalled upload itself was admitted and must still complete.
	if _, err := connA.Write(payload); err != nil {
		t.Fatal(err)
	}
	connA.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadFrame(connA); err != nil {
		t.Fatalf("admitted upload did not complete: %v", err)
	}

	// Load cleared: the shed client retries the identical frame (same
	// nonce) and is applied exactly once. A's response is written before
	// its admission ticket is released, so wait for the release first.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if frames, bytes := tcp.adm.Inflight(); frames == 0 && bytes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admission still charged after the stalled upload completed")
		}
	}
	resp := request(t, connB, small)
	if _, ok := resp.(*wire.ManifestCommitResponse); !ok {
		t.Fatalf("retry after busy got %T", resp)
	}
	if got := srv.Stats().Images; got != 2 {
		t.Fatalf("server holds %d images, want 2 (one per client)", got)
	}
}

// TestLoadSheddingFrameCount pins the frame-count high-water mark using
// a stalled query (1 admitted frame, limit 1): the next request sheds.
func TestLoadSheddingFrameCount(t *testing.T) {
	_, _, addr := listenTCP(t, TCPConfig{
		MaxInflightFrames: 1,
		IdleTimeout:       5 * time.Second,
	})
	header, payload := splitFrame(t, &wire.QueryRequest{Sets: []*features.BinarySet{{
		Descriptors: make([]features.Descriptor, 4),
	}}})
	connA, connB := dialRaw(t, addr), dialRaw(t, addr)
	up := uploadOne(9, stagedOne(t, connB, 1))
	if _, err := connA.Write(header); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp := request(t, connB, up)
		if _, ok := resp.(*wire.BusyResponse); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frame-count mark never shed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A lone frame on an idle server never sheds itself: complete A.
	if _, err := connA.Write(payload); err != nil {
		t.Fatal(err)
	}
	connA.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadFrame(connA); err != nil {
		t.Fatalf("stalled query did not complete: %v", err)
	}
}

// TestRetiredUploadFrameDropsConnection sends a frame of the retired
// per-image upload type (message number 3, now reserved): the server
// must treat it like any undecodable frame — drop the connection
// without answering — and apply nothing.
func TestRetiredUploadFrameDropsConnection(t *testing.T) {
	srv, _, addr := listenTCP(t, TCPConfig{IdleTimeout: 5 * time.Second})
	conn := dialRaw(t, addr)
	if id := uploadID(t, conn, uploadOne(1, stagedOne(t, conn, 10))); id != 0 {
		t.Fatalf("first upload got ID %d", id)
	}
	before := srv.Stats()

	// The retired layout: nonce, group, lat, lon, gain, an empty set and
	// a 3-byte blob — a frame a server once applied.
	payload := append(make([]byte, 40+4), 3, 0, 0, 0, 'o', 'l', 'd')
	frame := append([]byte{byte(len(payload)), 0, 0, 0, 3}, payload...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("server answered a retired frame (%d bytes) instead of dropping the connection", n)
	}
	if st := srv.Stats(); st != before {
		t.Fatalf("retired frame changed stats: %+v -> %+v", before, st)
	}
	// The server keeps serving other connections.
	if _, ok := request(t, dialRaw(t, addr), &wire.StatsRequest{}).(*wire.StatsResponse); !ok {
		t.Fatal("server stopped serving after a retired frame")
	}
}

// TestWholeImageFrameRefused sends the retired whole-image upload frame,
// which still decodes: the server answers it with ErrorResponse on the
// open connection and applies nothing — no image, no dedup entry, no WAL
// record.
func TestWholeImageFrameRefused(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := NewDefault()
	l, err := wal.Open(wal.Config{Dir: t.TempDir(), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv.AttachWAL(l)
	conn := dialRaw(t, listenOn(t, srv))
	uploadID(t, conn, uploadOne(1, stagedOne(t, conn, 10)))
	records := func() int64 { return reg.Counter("wal.append.records").Value() }
	stats, dedup, recs := srv.Stats(), srv.DedupEntries(), records()

	frame := &wire.UploadBatchRequest{Nonce: 2, Items: []wire.UploadBatchItem{
		{Set: walSet(2), GroupID: 2, Gain: 1, Blob: make([]byte, 10)},
	}}
	if resp, ok := request(t, conn, frame).(*wire.ErrorResponse); !ok {
		t.Fatalf("whole-image frame got %T, want ErrorResponse", resp)
	}
	if got := srv.Stats(); got != stats {
		t.Fatalf("refused frame changed stats: %+v -> %+v", stats, got)
	}
	if got := srv.DedupEntries(); !reflect.DeepEqual(got, dedup) {
		t.Fatalf("refused frame changed the dedup window: %+v -> %+v", dedup, got)
	}
	if got := records(); got != recs {
		t.Fatalf("refused frame logged %d WAL records", got-recs)
	}
	if _, ok := request(t, conn, &wire.StatsRequest{}).(*wire.StatsResponse); !ok {
		t.Fatal("connection unusable after the refused frame")
	}
}
