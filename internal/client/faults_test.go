package client

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"bees/internal/netsim"
	"bees/internal/server"
	"bees/internal/wire"
)

// blackHole listens and reads forever without ever responding — the
// shape of a server stalled behind a dead disaster uplink.
func blackHole(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestCloseUnblocksStuckRequest is the regression test for the Close
// deadlock: Close used to take the same mutex an in-flight roundTrip
// held while blocked reading from a dead server, so it never returned.
func TestCloseUnblocksStuckRequest(t *testing.T) {
	addr := blackHole(t)
	c, err := DialOptions(addr, Options{
		RequestTimeout: time.Minute, // far longer than the test
		MaxRetries:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	reqDone := make(chan error, 1)
	go func() {
		_, _, err := c.Stats()
		reqDone <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the request block on the read

	closeDone := make(chan error, 1)
	go func() { closeDone <- c.Close() }()
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close deadlocked behind a stuck request")
	}
	select {
	case err := <-reqDone:
		if err == nil {
			t.Fatal("request against a black hole succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("request still blocked after Close")
	}
}

// TestCloseCutsBackoffShort checks Close also interrupts a client
// sleeping between retries.
func TestCloseCutsBackoffShort(t *testing.T) {
	addr := blackHole(t)
	c, err := DialOptions(addr, Options{
		RequestTimeout: 50 * time.Millisecond,
		MaxRetries:     100,
		BackoffBase:    30 * time.Second, // one backoff dwarfs the test
		BackoffMax:     30 * time.Second,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqDone := make(chan error, 1)
	go func() {
		_, _, err := c.Stats()
		reqDone <- err
	}()
	time.Sleep(200 * time.Millisecond) // first attempt times out, backoff starts
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-reqDone:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("backoff sleep survived Close")
	}
}

// TestRetryReconnects drives a deterministic failure: the first
// connection dies on its first I/O, and the request must succeed over an
// automatically re-dialed clean connection.
func TestRetryReconnects(t *testing.T) {
	_, addr := startServer(t)
	var dials int
	var mu sync.Mutex
	dialer := func(a string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", a, timeout)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		dials++
		first := dials == 1
		mu.Unlock()
		if first {
			return netsim.NewFaultConn(conn, netsim.FaultConfig{Seed: 1, ResetProb: 1}), nil
		}
		return conn, nil
	}
	c, err := DialOptions(addr, Options{
		RequestTimeout: time.Second,
		MaxRetries:     3,
		BackoffBase:    time.Millisecond,
		Seed:           1,
		Dial:           dialer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Stats(); err != nil {
		t.Fatalf("request did not survive a dead first connection: %v", err)
	}
	m := c.Metrics()
	if m.Retries < 1 || m.Redials < 1 {
		t.Fatalf("metrics = %+v, want at least one retry and one redial", m)
	}
}

// TestNoRetryOnServerError checks failures the transport cannot cure —
// a server-reported error, or a message the protocol cannot encode — are
// surfaced immediately instead of being retried.
func TestNoRetryOnServerError(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	// The server answers frames it cannot handle with MsgError; an
	// UploadBatchResponse is a valid frame no server expects.
	if _, err := c.roundTrip(&wire.UploadBatchResponse{IDs: []int64{1}}); err == nil {
		t.Fatal("server accepted a bogus message")
	}
	if _, err := c.roundTrip(&struct{}{}); !errors.Is(err, wire.ErrUnencodable) {
		t.Fatalf("err = %v, want ErrUnencodable", err)
	}
	if m := c.Metrics(); m.Retries != 0 {
		t.Fatalf("client burned %d retries on unretriable failures", m.Retries)
	}
	// Neither failure may poison the connection.
	if _, _, err := c.Stats(); err != nil {
		t.Fatalf("connection unusable after unretriable failures: %v", err)
	}
	if m := c.Metrics(); m.Redials != 0 {
		t.Fatalf("client redialed %d times; connection should have survived", m.Redials)
	}
}

// TestRemoteServerErrRace hammers RemoteServer from many goroutines
// against a dead server; run under -race this catches unsynchronized
// lastErr access.
func TestRemoteServerErrRace(t *testing.T) {
	srv := server.NewDefault()
	tcp := server.NewTCP(srv)
	bound, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialOptions(bound.String(), Options{
		RequestTimeout: 100 * time.Millisecond,
		MaxRetries:     0,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tcp.Close()
	defer c.Close()
	remote := NewRemoteServer(c)
	sets := testSets(t, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			remote.QueryMaxBatch(sets)
			remote.UploadItems(remote.NewUploadNonce(), []server.UploadItem{{Set: sets[0], Meta: server.UploadMeta{Bytes: 4}}})
			remote.Err()
		}()
	}
	wg.Wait()
	if remote.Err() == nil {
		t.Fatal("Err lost the failures")
	}
	if remote.TakeDegraded() != 16 {
		t.Fatal("degradation count wrong")
	}
	if remote.TakeDegraded() != 0 {
		t.Fatal("TakeDegraded did not reset")
	}
}
