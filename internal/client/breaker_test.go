package client

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bees/internal/wire"
)

// scriptedServer runs a raw wire responder so tests control exactly what
// the server answers (the real TCPServer only sheds under actual load).
func scriptedServer(t *testing.T, respond func(msg any) any) string {
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
				for {
					msg, err := wire.ReadFrame(conn)
					if err != nil {
						return
					}
					if err := wire.WriteFrame(conn, respond(msg)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestBusyHoldDoesNotConsumeRetryBudget pins the BusyResponse contract:
// a shed request is held for the server's retry-after hint and resent —
// with zero retries consumed, no breaker trip, and the request
// ultimately succeeding once the server admits it.
func TestBusyHoldDoesNotConsumeRetryBudget(t *testing.T) {
	var mu sync.Mutex
	busyLeft := 3
	addr := scriptedServer(t, func(msg any) any {
		mu.Lock()
		defer mu.Unlock()
		if busyLeft > 0 {
			busyLeft--
			return &wire.BusyResponse{RetryAfterMs: 30}
		}
		return &wire.ManifestCommitResponse{IDs: []int64{7}}
	})
	c, err := DialOptions(addr, Options{MaxRetries: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	ids, err := c.commitManifests(1, []wire.ManifestItem{{GroupID: 1}})
	elapsed := time.Since(start)
	if err != nil || len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("upload after busy holds: ids=%v err=%v", ids, err)
	}
	// Three 30ms holds must actually pace the client.
	if elapsed < 80*time.Millisecond {
		t.Fatalf("client resent after %v, ignored the retry-after hints", elapsed)
	}
	m := c.Metrics()
	if m.Retries != 0 {
		t.Fatalf("busy holds consumed %d retries", m.Retries)
	}
	if m.BusyHolds != 3 {
		t.Fatalf("BusyHolds = %d, want 3", m.BusyHolds)
	}
	if m.BreakerTrips != 0 || m.BreakerState != BreakerClosed {
		t.Fatalf("busy responses affected the breaker: %+v", m)
	}
}

// TestBusyWaitsBounded: an always-busy server must eventually surface an
// error instead of holding a request forever (the pipeline then parks
// the chunk in the outbox).
func TestBusyWaitsBounded(t *testing.T) {
	addr := scriptedServer(t, func(any) any {
		return &wire.BusyResponse{RetryAfterMs: 5}
	})
	c, err := DialOptions(addr, Options{MaxRetries: 0, MaxBusyWaits: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.commitManifests(1, []wire.ManifestItem{{GroupID: 1}})
	if err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("err = %v, want busy exhaustion", err)
	}
	if m := c.Metrics(); m.BusyHolds != 3 { // MaxBusyWaits holds + the final refusal
		t.Fatalf("BusyHolds = %d, want 3", m.BusyHolds)
	}
}

// TestBreakerOpensAndRecovers drives the breaker through its full cycle:
// consecutive transport failures trip it open, the open hold paces the
// next attempt, and a successful probe closes it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	_, addr := startServer(t)
	var down atomic.Bool
	opts := Options{
		MaxRetries:         0,
		BackoffBase:        time.Millisecond,
		BackoffMax:         2 * time.Millisecond,
		BreakerThreshold:   2,
		BreakerCooldown:    20 * time.Millisecond,
		BreakerCooldownMax: 40 * time.Millisecond,
		Seed:               5,
		Dial: func(a string, timeout time.Duration) (net.Conn, error) {
			if down.Load() {
				return nil, errors.New("partitioned")
			}
			return net.DialTimeout("tcp", a, timeout)
		},
	}
	c, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Partition: kill the live connection and block redials.
	down.Store(true)
	c.stateMu.Lock()
	c.conn.Close()
	c.stateMu.Unlock()

	for i := 0; i < 2; i++ {
		if _, _, err := c.Stats(); err == nil {
			t.Fatalf("request %d succeeded through a partition", i)
		}
	}
	m := c.Metrics()
	if m.BreakerState != BreakerOpen || m.BreakerTrips != 1 {
		t.Fatalf("after %d failures: state=%d trips=%d, want open after threshold 2",
			2, m.BreakerState, m.BreakerTrips)
	}

	// Heal. The next request is the half-open probe: it must wait out the
	// open hold (jittered 10–30ms), succeed, and close the breaker.
	down.Store(false)
	start := time.Now()
	if _, _, err := c.Stats(); err != nil {
		t.Fatalf("probe through healed link failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("probe ran after %v, before the open hold expired", elapsed)
	}
	if m := c.Metrics(); m.BreakerState != BreakerClosed {
		t.Fatalf("breaker did not close after successful probe: state=%d", m.BreakerState)
	}
}

// TestBreakerHoldCutShortByClose: Close must interrupt an open-state
// hold promptly instead of letting the request sleep it out.
func TestBreakerHoldCutShortByClose(t *testing.T) {
	addr := scriptedServer(t, func(any) any {
		return &wire.BusyResponse{RetryAfterMs: 60_000}
	})
	c, err := DialOptions(addr, Options{MaxRetries: 0, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.Stats()
		errCh <- err
	}()
	// Let the request reach the 60s busy hold, then close underneath it.
	time.Sleep(50 * time.Millisecond)
	c.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not interrupt the busy hold")
	}
}
