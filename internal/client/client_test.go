package client

import (
	"net"
	"sync"
	"testing"
	"time"

	"bees/internal/dataset"
	"bees/internal/features"
	"bees/internal/server"
	"bees/internal/wire"
)

// startServer spins up a TCP server on a loopback port for the test.
func startServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	srv := server.NewDefault()
	tcp := server.NewTCP(srv)
	addr, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { tcp.Close() })
	return srv, addr.String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// uploadOne sends one image through the device upload path
// (RemoteServer.UploadItems) and returns its server-assigned ID.
func uploadOne(c *Client, set *features.BinarySet, meta server.UploadMeta) (int64, error) {
	ids, err := NewRemoteServer(c).UploadItems(c.NewNonce(), []server.UploadItem{{Set: set, Meta: meta}})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

func testSets(t *testing.T, n int) []*features.BinarySet {
	t.Helper()
	d := dataset.NewDisasterBatch(400, n, 0, 0)
	cfg := features.DefaultConfig()
	sets := make([]*features.BinarySet, n)
	for i, img := range d.Batch {
		sets[i] = features.ExtractORB(img.Render(), cfg)
		img.Free()
	}
	return sets
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Fatal("dialing a closed port should fail")
	}
}

func TestUploadAndQueryOverTCP(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)
	sets := testSets(t, 2)

	// Empty server: no similarity.
	sims, err := c.QueryMax(sets)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if sims[0] != 0 || sims[1] != 0 {
		t.Fatalf("empty server sims: %v", sims)
	}

	id, err := uploadOne(c, sets[0], server.UploadMeta{GroupID: 77, Lat: 48.85, Lon: 2.35, Bytes: 13})
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if e := srv.Get(0); e == nil || e.GroupID != 77 {
		t.Fatalf("server did not store upload (id=%d)", id)
	}

	sims, err = c.QueryMax(sets)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if sims[0] < 0.9 {
		t.Fatalf("uploaded image not found: sim=%v", sims[0])
	}
	if sims[1] > 0.1 {
		t.Fatalf("unrelated image matched: sim=%v", sims[1])
	}
}

// TestNegotiateBlocks: every server advertises block transfer, a reply
// without the bit reads false, and a reply that is not a Hello is an
// error.
func TestNegotiateBlocks(t *testing.T) {
	_, addr := startServer(t)
	if ok, err := dial(t, addr).NegotiateBlocks(); err != nil || !ok {
		t.Fatalf("real server: ok=%v err=%v, want true", ok, err)
	}
	for _, tc := range []struct {
		reply   any
		wantOK  bool
		wantErr bool
	}{
		{reply: &wire.Hello{Version: wire.ProtocolVersion}},
		{reply: &wire.StatsResponse{}, wantErr: true},
	} {
		addr := scriptedServer(t, func(any) any { return tc.reply })
		ok, err := dial(t, addr).NegotiateBlocks()
		if ok != tc.wantOK || (err != nil) != tc.wantErr {
			t.Fatalf("reply %T: ok=%v err=%v", tc.reply, ok, err)
		}
	}
}

func TestStatsOverTCP(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	sets := testSets(t, 1)
	if _, err := uploadOne(c, sets[0], server.UploadMeta{GroupID: 1, Bytes: 1234}); err != nil {
		t.Fatal(err)
	}
	images, bytes, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if images != 1 || bytes != 1234 {
		t.Fatalf("stats: images=%d bytes=%d", images, bytes)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, addr := startServer(t)
	sets := testSets(t, 8)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if _, err := uploadOne(c, sets[i], server.UploadMeta{GroupID: int64(i), Bytes: 1}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Images != 8 {
		t.Fatalf("server stored %d images, want 8", st.Images)
	}
}

func TestConcurrentRequestsOneClient(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	sets := testSets(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := uploadOne(c, sets[i], server.UploadMeta{GroupID: int64(i), Bytes: 1}); err != nil {
				errs <- err
			}
			if _, err := c.QueryMax(sets[i : i+1]); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseTerminatesClients(t *testing.T) {
	srv := server.NewDefault()
	tcp := server.NewTCP(srv)
	addr, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr.String())
	if err := tcp.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := tcp.Close(); err == nil {
		t.Fatal("double close should error")
	}
	sets := testSets(t, 1)
	if _, err := c.QueryMax(sets); err == nil {
		t.Fatal("request after server close should fail")
	}
}

// TestServerSurvivesGarbageFrames sends malformed bytes; the server must
// drop that connection but keep serving others.
func TestServerSurvivesGarbageFrames(t *testing.T) {
	_, addr := startServer(t)

	// Raw connection spewing garbage.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x99, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	// A well-behaved client must still work.
	c := dial(t, addr)
	sets := testSets(t, 1)
	if _, err := uploadOne(c, sets[0], server.UploadMeta{GroupID: 1, Bytes: 1}); err != nil {
		t.Fatalf("server died after garbage: %v", err)
	}
}

// TestServerRejectsOversizedFrame verifies the allocation guard.
func TestServerRejectsOversizedFrame(t *testing.T) {
	_, addr := startServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Announce a 4 GiB frame.
	header := []byte{0xff, 0xff, 0xff, 0xff, 1}
	if _, err := raw.Write(header); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection rather than allocate.
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("expected connection close or error")
	}
	// And keep serving new clients.
	c := dial(t, addr)
	if _, _, err := c.Stats(); err != nil {
		t.Fatalf("server unusable after oversized frame: %v", err)
	}
}

// TestServerHandlesAbruptDisconnect verifies half-finished requests do
// not wedge the server.
func TestServerHandlesAbruptDisconnect(t *testing.T) {
	_, addr := startServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Valid header promising payload, then hang up.
	raw.Write([]byte{100, 0, 0, 0, 1, 42})
	raw.Close()

	c := dial(t, addr)
	if _, _, err := c.Stats(); err != nil {
		t.Fatalf("server wedged by abrupt disconnect: %v", err)
	}
}
