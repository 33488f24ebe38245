package outbox

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bees/internal/diskfault"
	"bees/internal/features"
	"bees/internal/server"
	"bees/internal/telemetry"
)

func testItems(t *testing.T, seed int64, n int) []server.UploadItem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	items := make([]server.UploadItem, n)
	for i := range items {
		set := &features.BinarySet{Descriptors: make([]features.Descriptor, 2+rng.Intn(3))}
		for j := range set.Descriptors {
			for w := 0; w < 4; w++ {
				set.Descriptors[j][w] = rng.Uint64()
			}
		}
		items[i] = server.UploadItem{
			Set: set,
			Meta: server.UploadMeta{
				GroupID: int64(i),
				Lat:     rng.Float64()*180 - 90,
				Lon:     rng.Float64()*360 - 180,
				Bytes:   100 + rng.Intn(1000),
			},
		}
	}
	return items
}

func TestPushPeekAck(t *testing.T) {
	box, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := box.Peek(); ok {
		t.Fatal("empty outbox peeked a chunk")
	}
	items := testItems(t, 1, 3)
	if err := box.Push(42, 1.5, items); err != nil {
		t.Fatal(err)
	}
	if err := box.Push(43, 2.5, testItems(t, 2, 2)); err != nil {
		t.Fatal(err)
	}
	c, ok := box.Peek()
	if !ok || c.Nonce != 42 {
		t.Fatalf("Peek = %+v, %v; want oldest chunk (nonce 42)", c, ok)
	}
	if len(c.Items) != 3 || c.Utility != 1.5 {
		t.Fatalf("chunk corrupted: %d items, utility %v", len(c.Items), c.Utility)
	}
	box.Ack(c)
	c, ok = box.Peek()
	if !ok || c.Nonce != 43 {
		t.Fatalf("after ack, Peek nonce = %d", c.Nonce)
	}
	st := box.Stats()
	if st.Depth != 1 || st.Replayed != 1 || st.Items != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPushEmptyIsNoop(t *testing.T) {
	box, _ := Open(Config{})
	if err := box.Push(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	if box.Len() != 0 {
		t.Fatal("empty push enqueued a chunk")
	}
}

// TestCapacityEvictsLowestUtility pins the eviction policy: under
// capacity pressure the queue keeps its highest-utility chunks, not its
// newest.
func TestCapacityEvictsLowestUtility(t *testing.T) {
	box, err := Open(Config{MaxChunks: 3})
	if err != nil {
		t.Fatal(err)
	}
	utils := []float64{5, 1, 4, 3, 2} // nonce i has utils[i]
	for i, u := range utils {
		if err := box.Push(uint64(i), u, testItems(t, int64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Pushing 3 (util 3) evicts 1 (util 1); pushing 2 (util 2) evicts
	// itself as the new lowest. Survivors: 0 (5), 2 (4), 3 (3).
	want := map[uint64]bool{0: true, 2: true, 3: true}
	if box.Len() != 3 {
		t.Fatalf("Len = %d", box.Len())
	}
	for box.Len() > 0 {
		c, _ := box.Peek()
		if !want[c.Nonce] {
			t.Fatalf("survivor nonce %d (utility %v) should have been evicted", c.Nonce, c.Utility)
		}
		delete(want, c.Nonce)
		box.Ack(c)
	}
	if st := box.Stats(); st.Evicted != 2 {
		t.Fatalf("evicted = %d, want 2", st.Evicted)
	}
}

// TestAgeEviction checks MaxAge expiry with an injected clock.
func TestAgeEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	box, err := Open(Config{MaxAge: time.Minute, Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	box.Push(1, 1, testItems(t, 1, 1))
	now = now.Add(45 * time.Second)
	box.Push(2, 1, testItems(t, 2, 1))
	now = now.Add(30 * time.Second) // chunk 1 now 75s old, chunk 2 30s old
	c, ok := box.Peek()
	if !ok || c.Nonce != 2 {
		t.Fatalf("Peek = %+v, %v; want chunk 2 after chunk 1 expired", c, ok)
	}
	if st := box.Stats(); st.Evicted != 1 {
		t.Fatalf("evicted = %d", st.Evicted)
	}
}

// TestSpillAndResume is the durability core: chunks pushed by one
// process are readable, in order and bit-identical, by the next.
func TestSpillAndResume(t *testing.T) {
	dir := t.TempDir()
	tel := telemetry.NewRegistry()
	box, err := Open(Config{Dir: dir, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	items := testItems(t, 7, 4)
	if err := box.Push(0xabc, 3.25, items); err != nil {
		t.Fatal(err)
	}
	if err := box.Push(0xdef, 1.5, testItems(t, 8, 2)); err != nil {
		t.Fatal(err)
	}
	if st := box.Stats(); st.Spilled != 2 {
		t.Fatalf("spilled = %d", st.Spilled)
	}

	// "Restart": a fresh outbox over the same directory.
	box2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if box2.Len() != 2 {
		t.Fatalf("resumed Len = %d, want 2", box2.Len())
	}
	c, _ := box2.Peek()
	if c.Nonce != 0xabc || c.Utility != 3.25 || len(c.Items) != 4 {
		t.Fatalf("resumed chunk corrupted: %+v", c)
	}
	for i := range items {
		got, want := c.Items[i], items[i]
		if got.Meta != want.Meta {
			t.Fatalf("item %d meta: got %+v want %+v", i, got.Meta, want.Meta)
		}
		if got.Set.Len() != want.Set.Len() {
			t.Fatalf("item %d set length mismatch", i)
		}
		for j := range want.Set.Descriptors {
			if got.Set.Descriptors[j] != want.Set.Descriptors[j] {
				t.Fatalf("item %d descriptor %d corrupted", i, j)
			}
		}
	}
	// Ack must remove the spill file so a third open sees one chunk.
	box2.Ack(c)
	box3, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if box3.Len() != 1 {
		t.Fatalf("after ack+reopen Len = %d, want 1", box3.Len())
	}
	// New pushes must not collide with resumed sequence numbers.
	if err := box3.Push(0x111, 9, testItems(t, 9, 1)); err != nil {
		t.Fatal(err)
	}
	box4, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if box4.Len() != 2 {
		t.Fatalf("after push+reopen Len = %d, want 2", box4.Len())
	}
}

// TestResumeSkipsCorrupt: a torn or garbage chunk file is skipped and
// counted, never fatal, and does not strand the readable chunks.
func TestResumeSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	box, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	box.Push(1, 1, testItems(t, 1, 2))
	box.Push(2, 2, testItems(t, 2, 2))

	// Corrupt the first chunk file: truncate it mid-stream.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("expected 2 spill files, found %d", len(entries))
	}
	victim := filepath.Join(dir, entries[0].Name())
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// And drop a non-chunk file that must be ignored entirely.
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644)

	box2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if box2.Len() != 1 {
		t.Fatalf("resumed Len = %d, want 1 (corrupt skipped)", box2.Len())
	}
	if st := box2.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d", st.Corrupt)
	}
	c, _ := box2.Peek()
	if c.Nonce != 2 {
		t.Fatalf("surviving chunk nonce = %d", c.Nonce)
	}
}

func TestChunkTrailingGarbageRejected(t *testing.T) {
	dir := t.TempDir()
	box, _ := Open(Config{Dir: dir})
	box.Push(1, 1, testItems(t, 3, 1))
	entries, _ := os.ReadDir(dir)
	path := filepath.Join(dir, entries[0].Name())
	data, _ := os.ReadFile(path)
	os.WriteFile(path, append(data, 0xEE), 0o644)
	if _, err := readChunkFile(diskfault.OS(), path); !errors.Is(err, errBadChunk) {
		t.Fatalf("err = %v, want errBadChunk", err)
	}
}

func TestDrainerReplaysAndAcks(t *testing.T) {
	box, _ := Open(Config{})
	for i := 0; i < 3; i++ {
		box.Push(uint64(i), 1, testItems(t, int64(i), 1))
	}
	var replayed []uint64
	fail := true
	d := NewDrainer(box, func(c *Chunk) error {
		if fail {
			return errors.New("link down")
		}
		replayed = append(replayed, c.Nonce)
		return nil
	})
	// Link down: nothing drains, nothing is lost.
	if n, err := d.DrainOnce(); err == nil || n != 0 {
		t.Fatalf("DrainOnce during outage = (%d, %v)", n, err)
	}
	if box.Len() != 3 {
		t.Fatalf("outage lost chunks: Len = %d", box.Len())
	}
	// Link heals: everything drains in FIFO order.
	fail = false
	if n, err := d.DrainOnce(); err != nil || n != 3 {
		t.Fatalf("DrainOnce = (%d, %v)", n, err)
	}
	if box.Len() != 0 {
		t.Fatalf("Len = %d after drain", box.Len())
	}
	for i, nonce := range replayed {
		if nonce != uint64(i) {
			t.Fatalf("replay order %v, want FIFO", replayed)
		}
	}
}
