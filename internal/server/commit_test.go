package server

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bees/internal/blockstore"
	"bees/internal/diskfault"
	"bees/internal/features"
	"bees/internal/index"
	"bees/internal/wal"
	"bees/internal/wire"
)

// syncHookFS wraps a diskfault.FS so a test can intercept the fsync of
// every file it creates: fail it, or park the caller inside it.
type syncHookFS struct {
	diskfault.FS
	hook atomic.Pointer[func() error]
}

func (h *syncHookFS) onSync(fn func() error) { h.hook.Store(&fn) }

func (h *syncHookFS) Create(name string) (diskfault.File, error) {
	f, err := h.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return hookedFile{File: f, fs: h}, nil
}

type hookedFile struct {
	diskfault.File
	fs *syncHookFS
}

func (f hookedFile) Sync() error {
	if fn := f.fs.hook.Load(); fn != nil {
		if err := (*fn)(); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// hookedWALServer builds a server whose WAL fsyncs run through a hook.
func hookedWALServer(t *testing.T) (*Server, *syncHookFS) {
	t.Helper()
	fs := &syncHookFS{FS: diskfault.New(diskfault.Config{})}
	s, _, err := Recover(RecoverConfig{WAL: wal.Config{Dir: t.TempDir(), FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.WAL().Close() })
	return s, fs
}

// In-process uploads, fresh-nonce and nonce-less alike, go through the
// same durability gate as every other commit: once a WAL append fails
// they refuse, and memory runs no further ahead of the disk.
func TestUploadRefusedAfterWALFailure(t *testing.T) {
	s, fs := hookedWALServer(t)
	if _, err := s.UploadItems(s.NewUploadNonce(), []UploadItem{walItem(1, 100)}); err != nil {
		t.Fatal(err)
	}
	fs.onSync(func() error { return errors.New("injected fsync failure") })
	if _, err := s.UploadItems(s.NewUploadNonce(), []UploadItem{walItem(2, 200)}); !errors.Is(err, ErrDurability) {
		t.Fatalf("upload whose fsync failed: err = %v, want ErrDurability", err)
	}
	// The refused batch was installed before its append failed; from here
	// on nothing more may be.
	stats, uploads := s.Stats(), s.Uploads()
	if _, err := s.UploadItems(s.NewUploadNonce(), []UploadItem{walItem(3, 300)}); !errors.Is(err, ErrDurability) {
		t.Fatalf("later upload: err = %v, want ErrDurability", err)
	}
	if ids, err := s.UploadItems(0, []UploadItem{{Set: walSet(4), Meta: UploadMeta{Bytes: 400}}}); !errors.Is(err, ErrDurability) || ids != nil {
		t.Fatalf("upload on a poisoned server: ids %v, err = %v, want ErrDurability", ids, err)
	}
	if got := s.Stats(); got != stats {
		t.Fatalf("refused uploads changed Stats: %+v, want %+v", got, stats)
	}
	if got := s.Uploads(); !reflect.DeepEqual(got, uploads) {
		t.Fatalf("refused uploads changed history: %v, want %v", got, uploads)
	}
}

// exchange sends one frame on a fresh connection and delivers the reply
// (or the read error, when the server drops the connection).
func exchange(addr string, msg any) <-chan any {
	out := make(chan any, 1)
	go func() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			out <- err
			return
		}
		defer conn.Close()
		if err := wire.WriteFrame(conn, msg); err != nil {
			out <- err
			return
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := wire.ReadFrame(conn)
		if err != nil {
			out <- err
			return
		}
		out <- resp
	}()
	return out
}

func await(t *testing.T, ch <-chan any) any {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(15 * time.Second):
		t.Fatal("no reply: the retry is stuck behind its original")
		return nil
	}
}

// stagedManifestItems stages one synthetic blob of each size over conn,
// in 512-byte blocks, and returns their manifest items (item i has group
// i) plus the hashes staged.
func stagedManifestItems(t *testing.T, conn net.Conn, sizes ...int) ([]wire.ManifestItem, []blockstore.Hash) {
	t.Helper()
	put := &wire.BlockPut{}
	var items []wire.ManifestItem
	var hashes []blockstore.Hash
	for i, size := range sizes {
		blob := blockstore.SynthPayload(uint64(100+i), size)
		m := blockstore.ManifestOf(blob, 512)
		for j, part := range blockstore.Split(blob, 512) {
			put.Blocks = append(put.Blocks, wire.Block{Hash: m.Hashes[j], Data: part})
		}
		hashes = append(hashes, m.Hashes...)
		items = append(items, wire.ManifestItem{
			Set: walSet(uint64(i + 1)), GroupID: int64(i), TotalBytes: m.TotalBytes,
			BlockSize: uint32(m.BlockSize), Hashes: m.Hashes,
		})
	}
	if _, ok := request(t, conn, put).(*wire.BlockPutResponse); !ok {
		t.Fatal("block put refused")
	}
	return items, hashes
}

// A retry on a fresh connection that overlaps a slow original — here the
// original is parked inside its WAL fsync — waits for it and is answered
// with the original's IDs: one ID range, Stats counted once, blocks
// pinned once.
func TestSameNonceRetryOverlappingSlowOriginal(t *testing.T) {
	t.Run("manifest_commit", func(t *testing.T) {
		s, fs := hookedWALServer(t)
		addr := listenOn(t, s)
		items, hashes := stagedManifestItems(t, dialRaw(t, addr), 1200, 1200)

		parked, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		fs.onSync(func() error {
			once.Do(func() { close(parked); <-release })
			return nil
		})
		frame := &wire.ManifestCommit{Nonce: 0xC0FFEE, Items: items}
		first := exchange(addr, frame)
		<-parked
		second := exchange(addr, frame)
		awaitGateWaiter(t)
		close(release)

		idsOf := func(resp any) []int64 {
			if r, ok := resp.(*wire.ManifestCommitResponse); ok {
				return r.IDs
			}
			return nil
		}
		ids1, ids2 := idsOf(await(t, first)), idsOf(await(t, second))
		if len(ids1) != 2 || !reflect.DeepEqual(ids1, ids2) {
			t.Fatalf("original got %v, overlapping retry got %v", ids1, ids2)
		}
		if st := s.Stats(); st.Images != 2 || st.BytesReceived != 2400 {
			t.Fatalf("Stats %+v, want the batch counted once", st)
		}
		if got := s.Uploads(); len(got) != 2 {
			t.Fatalf("upload history %v, want one ID range", got)
		}
		for _, h := range hashes {
			if refs := s.Blocks().RefCount(h); refs != 1 {
				t.Fatalf("block %s holds %d refs, want 1", h.Short(), refs)
			}
		}
	})
}

// A failed original releases its reservation. A validation failure (a
// missing block) leaves the nonce free, so the retry after the refill
// applies; a WAL failure wakes the waiting retry, which is refused
// rather than applied to the poisoned server.
func TestSameNonceRetryAfterFailedOriginal(t *testing.T) {
	t.Run("missing_block", func(t *testing.T) {
		s, _ := hookedWALServer(t)
		addr := listenOn(t, s)
		conn := dialRaw(t, addr)
		items, _ := stagedManifestItems(t, conn, 1200)
		blob := blockstore.SynthPayload(999, 700)
		m := blockstore.ManifestOf(blob, 512)
		items = append(items, wire.ManifestItem{
			Set: &features.BinarySet{}, GroupID: 9, TotalBytes: m.TotalBytes,
			BlockSize: uint32(m.BlockSize), Hashes: m.Hashes,
		})
		commit := &wire.ManifestCommit{Nonce: 0xFA11, Items: items}
		for i := 0; i < 2; i++ {
			if _, ok := await(t, exchange(addr, commit)).(*wire.ErrorResponse); !ok {
				t.Fatalf("attempt %d with a missing block was not refused", i)
			}
		}
		if st := s.Stats(); st.Images != 0 || s.Blocks().Stats().Refs != 0 {
			t.Fatalf("refused commit left state behind: %+v, %+v", st, s.Blocks().Stats())
		}
		put := &wire.BlockPut{}
		for j, part := range blockstore.Split(blob, 512) {
			put.Blocks = append(put.Blocks, wire.Block{Hash: m.Hashes[j], Data: part})
		}
		request(t, conn, put)
		r1, ok := await(t, exchange(addr, commit)).(*wire.ManifestCommitResponse)
		if !ok || len(r1.IDs) != 2 {
			t.Fatalf("refilled retry: %+v", r1)
		}
		r2, ok := await(t, exchange(addr, commit)).(*wire.ManifestCommitResponse)
		if !ok || !reflect.DeepEqual(r1.IDs, r2.IDs) {
			t.Fatalf("replay after apply got %+v, want %v", r2, r1.IDs)
		}
		if st := s.Stats(); st.Images != 2 {
			t.Fatalf("Stats %+v, want the commit counted once", st)
		}
		for _, h := range m.Hashes {
			if refs := s.Blocks().RefCount(h); refs != 1 {
				t.Fatalf("refilled block holds %d refs, want 1", refs)
			}
		}
	})

	t.Run("wal_failure", func(t *testing.T) {
		s, fs := hookedWALServer(t)
		addr := listenOn(t, s)
		items, _ := stagedManifestItems(t, dialRaw(t, addr), 10)
		frame := &wire.ManifestCommit{Nonce: 0xDEAD, Items: items}
		parked, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		fs.onSync(func() error {
			var err error
			once.Do(func() { close(parked); <-release; err = errors.New("injected fsync failure") })
			return err
		})
		first := exchange(addr, frame)
		<-parked
		second := exchange(addr, frame)
		awaitGateWaiter(t)
		close(release)
		for i, ch := range []<-chan any{first, second} {
			if _, ok := await(t, ch).(error); !ok {
				t.Fatalf("attempt %d was acknowledged by a server whose WAL failed", i)
			}
		}
		if st := s.Stats(); st.Images != 1 {
			t.Fatalf("Stats %+v: the waiting retry applied after the original failed", st)
		}
		if got := s.DedupEntries(); len(got) != 0 {
			t.Fatalf("un-acked nonce recorded in the dedup window: %+v", got)
		}
	})
}

// awaitGateWaiter returns once some goroutine is inside the dedup gate
// while the original holds the reservation — that is, the retry is
// waiting for it. A retry that never waits is reported, not fatal: the
// caller must still release the parked original.
func awaitGateWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if n := runtime.Stack(buf, true); bytes.Contains(buf[:n], []byte("(*uploadDedup).claim")) {
			return
		}
		if time.Now().After(deadline) {
			t.Error("the retry never waited at the dedup gate")
			return
		}
	}
}

// listenOn serves s over loopback TCP for the test's lifetime.
func listenOn(t *testing.T, s *Server) string {
	t.Helper()
	tcp := NewTCP(s)
	addr, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcp.Close() })
	return addr.String()
}

// TestCommitVisibleWhole: a query running beside a commit sees all of
// the commit's images or none of them. Each round commits an 8-image
// chunk of copies of a fresh random set while a reader keeps asking for
// that set's candidates; every answer must equal the list before the
// chunk or the list after it, never a chunk applied in part. A fresh
// server per round keeps earlier chunks out of the 24-candidate window.
func TestCommitVisibleWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const rounds, chunk = 100, 8
	for r := 0; r < rounds; r++ {
		s := NewDefault()
		q := &features.BinarySet{Descriptors: make([]features.Descriptor, 64)}
		for i := range q.Descriptors {
			q.Descriptors[i] = features.Descriptor{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		}
		items := make([]UploadItem, chunk)
		for i := range items {
			cp := &features.BinarySet{Descriptors: append([]features.Descriptor(nil), q.Descriptors...)}
			items[i] = UploadItem{Set: cp, Meta: UploadMeta{GroupID: int64(r), Bytes: 1}}
		}
		query := func() []index.Candidate { return CandidatesAcross([]*Server{s}, q, 24) }
		before := query()
		var stop atomic.Bool
		var seen [][]index.Candidate
		started, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			seen = append(seen, query())
			close(started)
			for !stop.Load() {
				seen = append(seen, query())
			}
		}()
		<-started
		if _, err := s.UploadItems(uint64(r+1), items); err != nil {
			t.Fatal(err)
		}
		stop.Store(true)
		<-done
		after := query()
		if len(after) != len(before)+chunk {
			t.Fatalf("round %d: %d candidates after the chunk, want %d", r, len(after), len(before)+chunk)
		}
		for _, got := range seen {
			if !reflect.DeepEqual(got, before) && !reflect.DeepEqual(got, after) {
				t.Fatalf("round %d: a query saw %d of the chunk's %d images", r, len(got)-len(before), chunk)
			}
		}
	}
}
