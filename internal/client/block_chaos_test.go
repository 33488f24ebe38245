package client

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"bees/internal/netsim"
	"bees/internal/server"
	"bees/internal/telemetry"
	"bees/internal/wire"
)

// frameSever counts outgoing wire frames by parsing the 5-byte headers
// flowing through Write, and severs a netsim.Partition the moment the
// Nth frame of type typ starts — before any of its bytes reach the
// server. Round trips are strictly sequential on a client connection,
// so everything before that frame (for the Nth MsgBlockPut: Hello,
// BlockQuery, the first N−1 puts) has been acked by the time the cut
// lands: the test knows exactly what the server holds.
type frameSever struct {
	part  *netsim.Partition
	typ   wire.MsgType
	limit int

	mu     sync.Mutex
	seen   int // typ frames seen (completed headers)
	skip   int // payload bytes still to pass through untouched
	hdr    [5]byte
	hdrLen int
	done   bool // tripped once; later writes (post-heal) pass through
}

// observe feeds outgoing bytes through the frame parser and reports
// whether the write must be cut instead of forwarded. It trips exactly
// once: after the cut, fresh connections write unobserved so the healed
// replay can proceed.
func (s *frameSever) observe(b []byte) (sever bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return false
	}
	for len(b) > 0 {
		if s.skip > 0 {
			n := s.skip
			if n > len(b) {
				n = len(b)
			}
			s.skip -= n
			b = b[n:]
			continue
		}
		n := copy(s.hdr[s.hdrLen:], b)
		s.hdrLen += n
		b = b[n:]
		if s.hdrLen < len(s.hdr) {
			return false
		}
		s.hdrLen = 0
		s.skip = int(binary.LittleEndian.Uint32(s.hdr[:4]))
		if wire.MsgType(s.hdr[4]) == s.typ {
			s.seen++
			if s.seen >= s.limit {
				s.done = true
				return true
			}
		}
	}
	return false
}

// Dialer returns a partition dialer whose connections sever the link on
// the Nth typ frame.
func (s *frameSever) Dialer() func(addr string, timeout time.Duration) (net.Conn, error) {
	return s.part.Dialer(func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &severConn{Conn: conn, s: s}, nil
	})
}

type severConn struct {
	net.Conn
	s *frameSever
}

func (c *severConn) Write(b []byte) (int, error) {
	if c.s.observe(b) {
		// Sever with the frame unwritten: the server never sees any byte
		// of the fatal put, exactly like a mid-flight partition.
		c.s.part.Sever()
		return 0, netsim.ErrPartitioned
	}
	return c.Conn.Write(b)
}

// blockChaosItems builds a fixed two-image chunk: 7 blocks + 3 blocks
// at the 1 KiB test block size (the last block of the first image is a
// 512-byte tail, so partial trailing blocks are exercised too).
func blockChaosItems(t *testing.T) []server.UploadItem {
	t.Helper()
	sets := testSets(t, 2)
	return []server.UploadItem{
		{Set: sets[0], Meta: server.UploadMeta{GroupID: 1, Lat: 31.20, Lon: 121.40, Bytes: 6*1024 + 512}},
		{Set: sets[1], Meta: server.UploadMeta{GroupID: 2, Lat: 31.21, Lon: 121.41, Bytes: 3 * 1024}},
	}
}

func blockChaosOptions(seed int64, tel *telemetry.Registry, dial func(string, time.Duration) (net.Conn, error)) Options {
	return Options{
		DialTimeout:        time.Second,
		RequestTimeout:     time.Second,
		MaxRetries:         2,
		BackoffBase:        time.Millisecond,
		BackoffMax:         5 * time.Millisecond,
		BreakerCooldown:    2 * time.Millisecond,
		BreakerCooldownMax: 10 * time.Millisecond,
		Seed:               seed, // distinct per client: nonces are drawn from this
		Telemetry:          tel,
		Dial:               dial,
		BlockSize:          1024,
		BlockPutBytes:      1, // one block per put frame: the cut point is block-precise
	}
}

type blockCounters struct{ queried, sent, sentBytes, skipped, skippedBytes int64 }

func readBlockCounters(tel *telemetry.Registry) blockCounters {
	c := tel.Snapshot().Counters
	return blockCounters{
		queried:      c["client.blocks.queried"],
		sent:         c["client.blocks.sent"],
		sentBytes:    c["client.blocks.sent_bytes"],
		skipped:      c["client.blocks.skipped"],
		skippedBytes: c["client.blocks.skipped_bytes"],
	}
}

// TestChaosBlockResume is the delta-upload proof: a partition cuts the
// link mid-image — after the 4th of 10 block puts — and the healed
// replay of the same chunk (same nonce, same items) must resend ONLY
// the blocks the server never acked, commit, and leave the server's
// accounting byte-identical to a run that never saw a fault. A second
// replay of the commit dedups by nonce, and a second client uploading
// the identical images moves zero payload blocks.
func TestChaosBlockResume(t *testing.T) {
	if testing.Short() {
		t.Skip("renders feature sets and runs a TCP partition dance")
	}
	items := blockChaosItems(t)
	const (
		totalBlocks = 7 + 3
		totalBytes  = 6*1024 + 512 + 3*1024
		severAt     = 4 // the 4th put dies ⇒ exactly 3 blocks land
	)

	// --- Baseline: same chunk over a healthy link. ----------------------
	cleanSrv, cleanAddr := startServer(t)
	cleanTel := telemetry.NewRegistry()
	cleanClient, err := DialOptions(cleanAddr, blockChaosOptions(7, cleanTel, nil))
	if err != nil {
		t.Fatal(err)
	}
	cleanRemote := NewRemoteServer(cleanClient)
	if _, err := cleanRemote.UploadItems(cleanClient.NewNonce(), items); err != nil {
		t.Fatalf("clean upload: %v", err)
	}
	cleanClient.Close()
	wantStats := cleanSrv.Stats()
	wantBlocks := cleanSrv.Blocks().Stats()
	if wantStats.Images != len(items) || wantBlocks.Blocks != totalBlocks {
		t.Fatalf("clean run stored %d images / %d blocks, want %d / %d",
			wantStats.Images, wantBlocks.Blocks, len(items), totalBlocks)
	}

	// --- The system under test: sever on the 4th block put. -------------
	srv, addr := startServer(t)
	sever := &frameSever{part: netsim.NewPartition(), typ: wire.MsgBlockPut, limit: severAt}
	tel := telemetry.NewRegistry()
	c, err := DialOptions(addr, blockChaosOptions(8, tel, sever.Dialer()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	remote := NewRemoteServer(c)

	nonce := c.NewNonce()
	if _, err := remote.UploadItems(nonce, items); err == nil {
		t.Fatal("upload through a mid-image partition succeeded")
	}
	if images := srv.Stats().Images; images != 0 {
		t.Fatalf("server committed %d images from a half-delivered chunk", images)
	}
	st := srv.Blocks().Stats()
	if st.Blocks != severAt-1 || st.Refs != 0 {
		t.Fatalf("after sever: %d staged blocks (refs %d), want exactly %d acked puts (refs 0)",
			st.Blocks, st.Refs, severAt-1)
	}
	before := readBlockCounters(tel)
	if before.sent != severAt-1 {
		t.Fatalf("client counted %d blocks sent before the cut, want %d", before.sent, severAt-1)
	}

	// --- Heal and replay the same nonce+items: resume, don't resend. ----
	sever.part.Heal()
	if _, err := remote.UploadItems(nonce, items); err != nil {
		t.Fatalf("healed replay: %v", err)
	}
	after := readBlockCounters(tel)
	if d := after.queried - before.queried; d != totalBlocks {
		t.Fatalf("replay queried %d blocks, want %d", d, totalBlocks)
	}
	if d := after.skipped - before.skipped; d != severAt-1 {
		t.Fatalf("replay skipped %d blocks, want the %d already acked", d, severAt-1)
	}
	if d := after.sent - before.sent; d != totalBlocks-(severAt-1) {
		t.Fatalf("replay sent %d blocks, want only the %d missing", d, totalBlocks-(severAt-1))
	}
	// Across both attempts every payload byte crossed the wire exactly
	// once — that is the bandwidth claim of delta upload.
	if after.sent != totalBlocks || after.sentBytes != totalBytes {
		t.Fatalf("total sent %d blocks / %d bytes, want %d / %d (each block exactly once)",
			after.sent, after.sentBytes, totalBlocks, totalBytes)
	}

	// --- Exactly-once accounting, byte-identical to the clean run. ------
	if got := srv.Stats(); got != wantStats {
		t.Fatalf("after resume: %+v, clean run had %+v", got, wantStats)
	}
	if got := srv.Blocks().Stats(); got != wantBlocks {
		t.Fatalf("after resume block store: %+v, clean run had %+v", got, wantBlocks)
	}

	// --- Replaying the commit again dedups by nonce. ---------------------
	if _, err := remote.UploadItems(nonce, items); err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if got := srv.Stats(); got != wantStats {
		t.Fatalf("double replay changed accounting: %+v, want %+v", got, wantStats)
	}
	if got := srv.Blocks().Stats(); got != wantBlocks {
		t.Fatalf("double replay changed block refs: %+v, want %+v", got, wantBlocks)
	}

	// --- A second client uploading identical images sends zero blocks. --
	tel2 := telemetry.NewRegistry()
	c2, err := DialOptions(addr, blockChaosOptions(9, tel2, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	remote2 := NewRemoteServer(c2)
	if _, err := remote2.UploadItems(c2.NewNonce(), items); err != nil {
		t.Fatalf("second client upload: %v", err)
	}
	cc := readBlockCounters(tel2)
	if cc.sent != 0 || cc.skipped != totalBlocks {
		t.Fatalf("second client sent %d blocks (skipped %d), want 0 payload blocks (%d skipped)",
			cc.sent, cc.skipped, totalBlocks)
	}
	bst := srv.Blocks().Stats()
	if bst.Blocks != totalBlocks || bst.Bytes != wantBlocks.Bytes {
		t.Fatalf("cross-client dedup failed: %d blocks / %d bytes stored, want %d / %d",
			bst.Blocks, bst.Bytes, totalBlocks, wantBlocks.Bytes)
	}
	if bst.Refs != 2*wantBlocks.Refs || bst.LogicalBytes != 2*wantBlocks.LogicalBytes {
		t.Fatalf("second commit should double refs/logical bytes: %+v vs base %+v", bst, wantBlocks)
	}
	if got := srv.Stats().Images; got != 2*len(items) {
		t.Fatalf("server holds %d images after two distinct uploads, want %d", got, 2*len(items))
	}
}
