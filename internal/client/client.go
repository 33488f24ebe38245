// Package client implements the network client of the BEES prototype: a
// thin RPC wrapper over the wire protocol used by cmd/beesctl and by the
// prototype integration tests. Simulations bypass it and call the server
// in-process.
//
// The client is built for the paper's disaster network — a shaped
// 0–512 Kbps link where stalls, resets and partial writes are routine.
// Every request runs under a deadline, failed requests are retried with
// exponential backoff and jitter over a freshly dialed connection, and
// uploads carry a nonce so a retry can never be double-counted by the
// server. Close always returns promptly, even while a request is blocked
// on an unresponsive peer.
package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"bees/internal/blockstore"
	"bees/internal/features"
	"bees/internal/telemetry"
	"bees/internal/wire"
)

// ErrClosed is returned by requests issued on (or interrupted by) a
// closed client.
var ErrClosed = errors.New("client: closed")

// DialFunc opens a transport connection. Tests substitute fault-injecting
// dialers (netsim.FaultyDialer) to exercise the retry machinery.
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// Options tunes the client's fault-tolerance behaviour. The zero value
// selects the defaults documented per field.
type Options struct {
	// DialTimeout bounds each connection attempt. Default 5s.
	DialTimeout time.Duration
	// RequestTimeout is the per-attempt deadline covering the request
	// write and the response read. Default 10s.
	RequestTimeout time.Duration
	// MaxRetries is how many times a failed request is retried (on a
	// fresh connection) before the error is surfaced, so a request makes
	// at most MaxRetries+1 attempts. Negative disables retries. Default 3.
	MaxRetries int
	// BackoffBase is the sleep before the first retry; each further retry
	// doubles it, capped at BackoffMax, with ±50% jitter. Defaults 50ms
	// and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold is how many consecutive transport failures open
	// the circuit breaker; while open, the next attempt is *held* (not
	// rejected) until a cooldown passes, so a dead link is probed gently
	// instead of hammered. Default 8 — above the per-request retry
	// budget, so the breaker only trips across requests, never within a
	// healthy one.
	BreakerThreshold int
	// BreakerCooldown is the first open-state hold; each failed probe
	// doubles it up to BreakerCooldownMax. Defaults 50ms and 250ms.
	BreakerCooldown    time.Duration
	BreakerCooldownMax time.Duration
	// MaxBusyWaits caps how many consecutive BusyResponse holds one
	// request tolerates before surfacing an error; busy holds do not
	// consume the retry budget. Default 8.
	MaxBusyWaits int
	// Seed fixes the jitter and nonce RNG for reproducible tests; 0 draws
	// a random seed.
	Seed int64
	// Dial replaces net.DialTimeout, e.g. with a fault-injecting link.
	Dial DialFunc
	// LazyDial skips the eager connection in DialOptions: the client is
	// returned immediately and the first request dials (with the usual
	// retry machinery). A device that spools uploads to an outbox wants
	// this — it must start even while the server is unreachable.
	LazyDial bool
	// Telemetry is the registry the client's transport counters
	// ("client.dials", "client.retries", "client.requests") land in —
	// share one registry across the app to scrape everything at once.
	// Nil gives the client a private registry, which Metrics reads, so
	// the accessor works either way.
	Telemetry *telemetry.Registry
	// BlockSize is the content-addressed block granularity for delta
	// uploads; it must match what resumed transfers used or their blocks
	// won't be found. 0 selects blockstore.DefaultBlockSize (128 KiB).
	BlockSize int
	// BlockPutBytes caps the approximate payload of one BlockPut frame;
	// smaller frames ack more often, which is what makes a severed
	// transfer resumable mid-image. Default 4 MiB.
	BlockPutBytes int
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 8
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 50 * time.Millisecond
	}
	if o.BreakerCooldownMax <= 0 {
		o.BreakerCooldownMax = 250 * time.Millisecond
	}
	if o.MaxBusyWaits <= 0 {
		o.MaxBusyWaits = 8
	}
	if o.BlockSize <= 0 {
		o.BlockSize = blockstore.DefaultBlockSize
	}
	if o.BlockPutBytes <= 0 {
		o.BlockPutBytes = 4 << 20
	}
	if o.Seed == 0 {
		o.Seed = rand.Int63()
	}
	if o.Dial == nil {
		o.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if o.Telemetry == nil {
		o.Telemetry = telemetry.NewRegistry()
	}
	return o
}

// DefaultOptions returns the default fault-tolerance settings, with
// MaxRetries as documented on Options.
func DefaultOptions() Options {
	o := Options{MaxRetries: 3}
	return o.withDefaults()
}

// Metrics counts the client's fault-tolerance activity. It is a snapshot
// of the telemetry counters "client.retries" and "client.dials" in the
// client's registry (Options.Telemetry, or the private one the client
// creates when none is given).
type Metrics struct {
	// Retries is how many request attempts were repeated after a failure.
	Retries int64
	// Redials is how many connections were established after the first.
	Redials int64
	// BreakerState is the circuit breaker's current state (Breaker*
	// constants: 0 closed, 1 open, 2 half-open).
	BreakerState int
	// BreakerTrips counts closed→open transitions.
	BreakerTrips int64
	// BusyHolds counts attempts the server answered with BusyResponse;
	// each held the request for the server's retry-after hint without
	// consuming retry budget.
	BusyHolds int64
}

// Client is a connection to a beesd server. Methods are safe for
// concurrent use; requests serialize over the single connection.
type Client struct {
	addr string
	opts Options

	// reqMu serializes round trips (one request/response in flight).
	reqMu sync.Mutex
	rng   *rand.Rand // jitter + nonces; guarded by reqMu

	// stateMu guards conn/closed only; it is never held across I/O, so
	// Close can always acquire it and unblock a stuck reader.
	stateMu sync.Mutex
	conn    net.Conn
	closed  bool
	// closeCh is closed by Close to cut backoff sleeps short.
	closeCh chan struct{}

	// Transport counters live in the telemetry registry; the pointers are
	// resolved once at construction so the hot path never takes the
	// registry lock.
	dials     *telemetry.Counter
	retries   *telemetry.Counter
	requests  *telemetry.Counter
	busyHolds *telemetry.Counter

	// breaker paces attempts across requests: consecutive transport
	// failures open it, and server BusyResponses park the next attempt
	// through it.
	breaker *breaker

	// Block-transfer counters (see blocks.go), resolved once like the
	// transport counters above.
	blocksQueried      *telemetry.Counter
	blocksSent         *telemetry.Counter
	blocksSentBytes    *telemetry.Counter
	blocksSkipped      *telemetry.Counter
	blocksSkippedBytes *telemetry.Counter
}

// Dial connects to a beesd server with default fault tolerance; timeout
// bounds the initial connection attempt.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	opts := Options{MaxRetries: 3}
	opts.DialTimeout = timeout
	return DialOptions(addr, opts)
}

// DialOptions connects to a beesd server with explicit fault-tolerance
// settings. The initial connection is established eagerly so an
// unreachable server fails fast.
func DialOptions(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	c := &Client{
		addr:      addr,
		opts:      opts,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		closeCh:   make(chan struct{}),
		dials:     opts.Telemetry.Counter("client.dials"),
		retries:   opts.Telemetry.Counter("client.retries"),
		requests:  opts.Telemetry.Counter("client.requests"),
		busyHolds: opts.Telemetry.Counter("client.busy_holds"),
		breaker: newBreaker(opts.BreakerThreshold, opts.BreakerCooldown,
			opts.BreakerCooldownMax, opts.Seed+1, opts.Telemetry),
		blocksQueried:      opts.Telemetry.Counter("client.blocks.queried"),
		blocksSent:         opts.Telemetry.Counter("client.blocks.sent"),
		blocksSentBytes:    opts.Telemetry.Counter("client.blocks.sent_bytes"),
		blocksSkipped:      opts.Telemetry.Counter("client.blocks.skipped"),
		blocksSkippedBytes: opts.Telemetry.Counter("client.blocks.skipped_bytes"),
	}
	if opts.LazyDial {
		return c, nil
	}
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.stateMu.Lock()
	c.conn = conn
	c.stateMu.Unlock()
	return c, nil
}

func (c *Client) dial() (net.Conn, error) {
	conn, err := c.opts.Dial(c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	c.dials.Inc()
	return conn, nil
}

// Metrics returns a snapshot of the retry/redial/breaker counters.
func (c *Client) Metrics() Metrics {
	return Metrics{
		Retries:      c.retries.Value(),
		Redials:      max(c.dials.Value()-1, 0),
		BreakerState: c.breaker.State(),
		BreakerTrips: c.opts.Telemetry.Counter("client.breaker.trips").Value(),
		BusyHolds:    c.busyHolds.Value(),
	}
}

// serverError marks a failure the server itself reported: the transport
// worked, so retrying the same request is pointless.
type serverError struct{ msg string }

func (e *serverError) Error() string { return "client: server error: " + e.msg }

// ensureConn returns the live connection, dialing a fresh one if the
// previous attempt tore it down.
func (c *Client) ensureConn() (net.Conn, error) {
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		return nil, ErrClosed
	}
	if conn := c.conn; conn != nil {
		c.stateMu.Unlock()
		return conn, nil
	}
	c.stateMu.Unlock()

	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	c.conn = conn
	c.stateMu.Unlock()
	return conn, nil
}

// dropConn discards a connection after a failed attempt so the next
// attempt starts from a clean stream (a partial write or desynchronized
// read makes the old one unusable).
func (c *Client) dropConn(conn net.Conn) {
	conn.Close()
	c.stateMu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.stateMu.Unlock()
}

// backoff sleeps before retry number n (1-based) or returns ErrClosed if
// the client is closed first.
func (c *Client) backoff(n int) error {
	d := c.opts.BackoffBase << (n - 1)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	// ±50% jitter keeps a fleet of disaster phones from retrying in sync.
	d = d/2 + time.Duration(c.rng.Int63n(int64(d)))
	select {
	case <-time.After(d):
		return nil
	case <-c.closeCh:
		return ErrClosed
	}
}

// roundTrip writes one frame and reads one response frame, retrying over
// fresh connections until the retry budget is spent. Two kinds of pause
// gate the attempts without consuming that budget: the circuit breaker's
// open-state hold (the link has been failing across requests) and the
// server's BusyResponse retry-after hint (the transport works, the
// server is shedding load).
func (c *Client) roundTrip(req any) (any, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	c.requests.Inc()
	var lastErr error
	attempt, busyWaits := 0, 0
	for {
		// Breaker gate: holds (possibly repeatedly) until the cooldown or
		// busy hint expires. In open state the attempt that passes is the
		// half-open probe — reqMu makes it naturally single-flight.
		if err := c.breaker.wait(c.closeCh); err != nil {
			return nil, err
		}
		conn, err := c.ensureConn()
		if err == nil {
			var resp any
			resp, err = c.attempt(conn, req)
			if err == nil {
				if busy, ok := resp.(*wire.BusyResponse); ok {
					// The server shed this request without applying it. The
					// transport worked (the probe succeeded), so pace via the
					// hint and resend the identical frame — same nonce — with
					// the retry budget untouched.
					c.breaker.onSuccess()
					c.busyHolds.Inc()
					busyWaits++
					if busyWaits > c.opts.MaxBusyWaits {
						return nil, fmt.Errorf("client: server busy after %d holds (retry-after %dms)",
							busyWaits, busy.RetryAfterMs)
					}
					c.breaker.hold(time.Duration(busy.RetryAfterMs) * time.Millisecond)
					continue
				}
				c.breaker.onSuccess()
				return resp, nil
			}
			var se *serverError
			if errors.As(err, &se) {
				// The exchange succeeded; the server rejected the request.
				c.breaker.onSuccess()
				return nil, err
			}
			if errors.Is(err, wire.ErrUnencodable) {
				// Nothing hit the wire; the connection is still good and a
				// retry would fail identically.
				return nil, err
			}
			c.dropConn(conn)
		}
		if errors.Is(err, ErrClosed) || c.isClosed() {
			return nil, ErrClosed
		}
		c.breaker.onFailure()
		lastErr = err
		attempt++
		if attempt > c.opts.MaxRetries {
			return nil, fmt.Errorf("client: request failed after %d attempts: %w",
				c.opts.MaxRetries+1, lastErr)
		}
		if err := c.backoff(attempt); err != nil {
			return nil, err
		}
		c.retries.Inc()
	}
}

// attempt performs one request/response exchange under the per-request
// deadline.
func (c *Client) attempt(conn net.Conn, req any) (any, error) {
	if err := conn.SetDeadline(time.Now().Add(c.opts.RequestTimeout)); err != nil {
		return nil, fmt.Errorf("client: set deadline: %w", err)
	}
	if err := wire.WriteFrame(conn, req); err != nil {
		return nil, err
	}
	resp, err := wire.ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	if e, ok := resp.(*wire.ErrorResponse); ok {
		return nil, &serverError{msg: e.Message}
	}
	return resp, nil
}

func (c *Client) isClosed() bool {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.closed
}

// QueryMax returns the server's maximum stored similarity for each
// feature set, in order.
func (c *Client) QueryMax(sets []*features.BinarySet) ([]float64, error) {
	resp, err := c.roundTrip(&wire.QueryRequest{Sets: sets})
	if err != nil {
		return nil, err
	}
	qr, ok := resp.(*wire.QueryResponse)
	if !ok {
		return nil, fmt.Errorf("client: unexpected response %T", resp)
	}
	if len(qr.MaxSims) != len(sets) {
		return nil, fmt.Errorf("client: got %d similarities for %d sets", len(qr.MaxSims), len(sets))
	}
	return qr.MaxSims, nil
}

// NewNonce draws a nonzero upload nonce for a caller that manages its
// own replay (core.Pipeline stamps outbox chunks with it before the
// first attempt, so replays dedup against that attempt). The rng is
// guarded by reqMu, so a draw waits out any round trip in flight.
func (c *Client) NewNonce() uint64 {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	for {
		if n := c.rng.Uint64(); n != 0 {
			return n
		}
	}
}

// PushTelemetry uploads a telemetry snapshot (JSON-encoded on the wire)
// so the server's /debug endpoint can expose this client's pipeline and
// transport metrics. beesctl pushes once per run; a retried push merges
// counters twice, which only overstates client activity.
func (c *Client) PushTelemetry(s telemetry.Snapshot) error {
	body, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("client: encode telemetry: %w", err)
	}
	resp, err := c.roundTrip(&wire.TelemetryPush{Snapshot: body})
	if err != nil {
		return err
	}
	if _, ok := resp.(*wire.TelemetryAck); !ok {
		return fmt.Errorf("client: unexpected response %T", resp)
	}
	return nil
}

// Stats fetches the server's upload counters.
func (c *Client) Stats() (images, bytes int64, err error) {
	resp, err := c.roundTrip(&wire.StatsRequest{})
	if err != nil {
		return 0, 0, err
	}
	sr, ok := resp.(*wire.StatsResponse)
	if !ok {
		return 0, 0, fmt.Errorf("client: unexpected response %T", resp)
	}
	return sr.Images, sr.BytesReceived, nil
}

// Close closes the connection. It never waits for an in-flight request:
// closing the conn unblocks any reader stuck on a dead peer, and pending
// backoff sleeps are cut short.
func (c *Client) Close() error {
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.conn = nil
	close(c.closeCh)
	c.stateMu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
