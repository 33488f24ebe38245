package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bees/internal/diskfault"
	"bees/internal/telemetry"
)

// replayAll collects every replayed payload.
func replayAll(t *testing.T, cfg Config) ([][]byte, ReplayStats) {
	t.Helper()
	var got [][]byte
	st, err := Replay(cfg, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got, st
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%04d-%s", i, "payload body with some length to checksum"))
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncEachRecord, SyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), Policy: pol}
			l, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := payloads(50)
			for _, p := range want {
				if err := l.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			got, st := replayAll(t, cfg)
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if string(got[i]) != string(want[i]) {
					t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
				}
			}
			if st.TruncatedBytes != 0 || st.TruncatedAt != "" {
				t.Fatalf("clean log reports truncation: %+v", st)
			}
		})
	}
}

func TestRotationAndReopen(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), SegmentBytes: 256, Policy: SyncNone}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(20)
	for _, p := range want[:10] {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: appends land in a fresh segment after the newest on disk.
	l2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range want[10:] {
		if err := l2.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSegments(diskfault.OS(), cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 4 {
		t.Fatalf("tiny SegmentBytes produced only %d segments", len(seqs))
	}
	got, st := replayAll(t, cfg)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records across %d segments, want %d", len(got), st.Segments, len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d mismatch after rotation+reopen", i)
		}
	}
}

// TestTornTailTruncated: a record whose tail is missing is abandoned,
// everything before it is replayed, and a log reopened over the torn
// directory keeps working.
func TestTornTailTruncated(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Policy: SyncNone}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(8)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listSegments(diskfault.OS(), cfg.Dir)
	last := filepath.Join(cfg.Dir, segName(seqs[len(seqs)-1]))
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record in half.
	if err := os.Truncate(last, fi.Size()-20); err != nil {
		t.Fatal(err)
	}
	got, st := replayAll(t, cfg)
	if len(got) != len(want)-1 {
		t.Fatalf("torn tail: replayed %d, want %d", len(got), len(want)-1)
	}
	if st.TruncatedBytes == 0 || st.TruncatedAt == "" {
		t.Fatalf("truncation not reported: %+v", st)
	}
	// Reopen + append after the tear: Open repairs the torn tail (the
	// abandoned record is physically discarded) and new records land in
	// a fresh segment — fully replayable, not stranded behind the tear.
	l2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]byte("after-the-crash")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got2, st2 := replayAll(t, cfg)
	if len(got2) != len(want) {
		t.Fatalf("after reopen: replayed %d, want %d (7 surviving + 1 new)", len(got2), len(want))
	}
	for i := 0; i < len(want)-1; i++ {
		if string(got2[i]) != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got2[i], want[i])
		}
	}
	if string(got2[len(got2)-1]) != "after-the-crash" {
		t.Fatalf("last record = %q, want the post-reopen append", got2[len(got2)-1])
	}
	if st2.TruncatedBytes != 0 {
		t.Fatalf("repair left a torn tail: %+v", st2)
	}
}

// TestCorruptRecordTruncates: one flipped bit fails the CRC and
// truncates from that record on, including later segments.
func TestCorruptRecordTruncates(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), SegmentBytes: 256, Policy: SyncNone}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(12)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listSegments(diskfault.OS(), cfg.Dir)
	if len(seqs) < 3 {
		t.Fatalf("need >=3 segments, have %d", len(seqs))
	}
	// Flip one payload bit in the middle segment.
	mid := filepath.Join(cfg.Dir, segName(seqs[len(seqs)/2]))
	b, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	b[segHeaderSize+frameHeaderSize+4] ^= 0x10
	if err := os.WriteFile(mid, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, st := replayAll(t, cfg)
	if len(got) >= len(want) {
		t.Fatalf("corruption not detected: %d records", len(got))
	}
	if st.TruncatedAt != segName(seqs[len(seqs)/2]) {
		t.Fatalf("truncated at %q, want %q", st.TruncatedAt, segName(seqs[len(seqs)/2]))
	}
	// Later segments count toward abandoned bytes.
	var later int64
	for _, seq := range seqs[len(seqs)/2+1:] {
		fi, _ := os.Stat(filepath.Join(cfg.Dir, segName(seq)))
		later += fi.Size()
	}
	if st.TruncatedBytes <= later {
		t.Fatalf("TruncatedBytes %d must exceed later-segment bytes %d", st.TruncatedBytes, later)
	}
	// Every replayed record is intact and in order.
	for i := range got {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d corrupted silently", i)
		}
	}
}

func TestRotateAndTruncateThrough(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := Config{Dir: t.TempDir(), Telemetry: reg}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(5) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("post-rotate")); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateThrough(sealed); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, cfg)
	if len(got) != 1 || string(got[0]) != "post-rotate" {
		t.Fatalf("after truncate: %d records (%q)", len(got), got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("wal.rotations").Value(); v != 1 {
		t.Fatalf("wal.rotations = %d", v)
	}
	if v := reg.Counter("wal.append.records").Value(); v != 6 {
		t.Fatalf("wal.append.records = %d", v)
	}
}

// TestFirstSegment: a missing or empty directory has no first segment,
// a fresh log starts at 1, and only truncation moves the first segment
// past 1; files that are not segments (a checkpoint beside the log) do
// not count.
func TestFirstSegment(t *testing.T) {
	first := func(cfg Config) uint64 {
		t.Helper()
		seq, err := FirstSegment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	dir := t.TempDir()
	if got := first(Config{Dir: filepath.Join(dir, "never-created")}); got != 0 {
		t.Fatalf("missing dir: first segment %d, want 0", got)
	}
	cfg := Config{Dir: dir}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint"), []byte("snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := first(cfg); got != 0 {
		t.Fatalf("no segments: first segment %d, want 0", got)
	}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := first(cfg); got != 1 {
		t.Fatalf("fresh log: first segment %d, want 1", got)
	}
	sealed, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if got := first(cfg); got != 1 {
		t.Fatalf("rotated log: first segment %d, want 1", got)
	}
	if err := l.TruncateThrough(sealed); err != nil {
		t.Fatal(err)
	}
	if got := first(cfg); got != sealed+1 {
		t.Fatalf("truncated log: first segment %d, want %d", got, sealed+1)
	}
	notDir := filepath.Join(dir, "checkpoint")
	if _, err := FirstSegment(Config{Dir: notDir}); err == nil {
		t.Fatal("a file in place of the directory scanned without error")
	}
}

// TestSyncErrorPoisonsLog: the first fsync failure fails that append
// and poisons the log — every later Append, AppendNoSync and Rotate is
// refused with the same error, so acknowledged state and log contents
// cannot diverge silently. A failing header fsync fails Open itself.
func TestSyncErrorPoisonsLog(t *testing.T) {
	failing := diskfault.New(diskfault.Config{Seed: 9, SyncErrProb: 1})
	if _, err := Open(Config{Dir: t.TempDir(), FS: failing}); err == nil {
		t.Fatal("Open with failing fsync succeeded")
	}
}

// TestGroupCommitSyncFailure is named for the group commit it first ran
// under; it now pins the default per-record policy: a failed fsync fails
// its Append and poisons every later mutation with the same error.
func TestGroupCommitSyncFailure(t *testing.T) {
	// Open costs 4 ops (create, header write, sync, syncdir); the append
	// writes at op 5 and its fsync dies at op 6.
	fs := diskfault.New(diskfault.Config{CrashAfterOps: 6})
	l, err := Open(Config{Dir: t.TempDir(), FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sticky := l.Append([]byte("never-durable"))
	if !errors.Is(sticky, diskfault.ErrCrashed) {
		t.Fatalf("append err = %v, want ErrCrashed from its fsync", sticky)
	}
	if err := l.Append([]byte("after")); err != sticky {
		t.Fatalf("poisoned log: Append err = %v, want the sticky %v", err, sticky)
	}
	if err := l.AppendNoSync([]byte("after")); err != sticky {
		t.Fatalf("poisoned log: AppendNoSync err = %v, want the sticky %v", err, sticky)
	}
	if _, err := l.Rotate(); err != sticky {
		t.Fatalf("poisoned log: Rotate err = %v, want the sticky %v", err, sticky)
	}
}

func TestAppendErrorSticky(t *testing.T) {
	dir := t.TempDir()
	// Crash on the 5th mutating op: header create+write+sync+dirsync are
	// 1-4, so the first record write dies.
	fs := diskfault.New(diskfault.Config{CrashAfterOps: 5})
	l, err := Open(Config{Dir: dir, FS: fs, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("doomed")); !errors.Is(err, diskfault.ErrCrashed) {
		t.Fatalf("append err = %v, want ErrCrashed", err)
	}
	if err := l.Append([]byte("after")); err == nil {
		t.Fatal("append after I/O error succeeded")
	}
	// The torn half-record is invisible to replay.
	got, st := replayAll(t, Config{Dir: dir})
	if len(got) != 0 {
		t.Fatalf("torn record replayed: %q", got)
	}
	if st.TruncatedBytes == 0 {
		t.Fatalf("torn record not counted: %+v", st)
	}
}

// TestCrashPanicMidAppend: the Panic crash mode kills the appender
// mid-call; a recover() harness survives and replay sees the prefix.
func TestCrashPanicMidAppend(t *testing.T) {
	dir := t.TempDir()
	fs := diskfault.New(diskfault.Config{CrashAfterOps: 7, Panic: true})
	l, err := Open(Config{Dir: dir, FS: fs, Policy: SyncEachRecord})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("no crash panic fired")
			} else if _, ok := r.(*diskfault.Crash); !ok {
				panic(r)
			}
		}()
		for i := 0; i < 100; i++ {
			if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			n++
		}
	}()
	got, _ := replayAll(t, Config{Dir: dir})
	// Every acknowledged (returned-nil) append must replay; the one in
	// flight may or may not, depending on where the op landed.
	if len(got) < n || len(got) > n+1 {
		t.Fatalf("replayed %d records after %d acknowledged appends", len(got), n)
	}
}

func TestAppendValidation(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	if err := l.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	if _, err := l.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("rotate after close: %v", err)
	}
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open without Dir succeeded")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in  string
		pol SyncPolicy
		ok  bool
	}{
		{"record", SyncEachRecord, true},
		{"", SyncEachRecord, true},
		{"none", SyncNone, true},
		{"5ms", 0, false},
		{"1s", 0, false},
		{"-3ms", 0, false},
		{"0", 0, false},
		{"sometimes", 0, false},
	}
	for _, c := range cases {
		pol, err := ParseSyncPolicy(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParseSyncPolicy(%q) err = %v", c.in, err)
		}
		if c.ok && pol != c.pol {
			t.Fatalf("ParseSyncPolicy(%q) = %v", c.in, pol)
		}
	}
	for _, p := range []SyncPolicy{SyncEachRecord, SyncNone, SyncPolicy(42)} {
		if p.String() == "" {
			t.Fatalf("empty String() for %d", int(p))
		}
	}
}

func TestSegNameRoundTrip(t *testing.T) {
	for _, seq := range []uint64{1, 255, 1 << 40} {
		got, ok := parseSegName(segName(seq))
		if !ok || got != seq {
			t.Fatalf("parseSegName(segName(%d)) = %d, %v", seq, got, ok)
		}
	}
	for _, bad := range []string{"wal-.seg", "wal-00.seg", "x-0000000000000001.seg",
		"wal-000000000000000z.seg", "wal-0000000000000001.tmp"} {
		if _, ok := parseSegName(bad); ok {
			t.Fatalf("parseSegName(%q) accepted", bad)
		}
	}
}

// TestForeignFileIgnored: non-segment files in the directory are
// ignored by both Open and Replay.
func TestForeignFileIgnored(t *testing.T) {
	cfg := Config{Dir: t.TempDir()}
	if err := os.WriteFile(filepath.Join(cfg.Dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("only")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := replayAll(t, cfg)
	if len(got) != 1 || st.Segments != 1 {
		t.Fatalf("foreign file confused replay: %d records, %d segments", len(got), st.Segments)
	}
}

func TestReplayMissingDir(t *testing.T) {
	st, err := Replay(Config{Dir: filepath.Join(t.TempDir(), "never-created")}, func([]byte) error {
		t.Fatal("callback fired")
		return nil
	})
	if err != nil || st.Records != 0 {
		t.Fatalf("missing dir: %+v, %v", st, err)
	}
}

func TestReplayCallbackError(t *testing.T) {
	cfg := Config{Dir: t.TempDir()}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(3) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	boom := errors.New("boom")
	_, err = Replay(cfg, func([]byte) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("callback error lost: %v", err)
	}
}

// TestKillAnywhereWALOps sweeps the crash point across every mutating
// disk op of a scripted WAL workload: whatever op dies, the API returns
// errors (never panics) and a clean-FS Replay over the directory
// recovers an intact record prefix.
func TestKillAnywhereWALOps(t *testing.T) {
	script := func(dir string, fs diskfault.FS) error {
		l, err := Open(Config{Dir: dir, FS: fs, Policy: SyncEachRecord, SegmentBytes: 128})
		if err != nil {
			return err
		}
		defer l.Close()
		for i := 0; i < 4; i++ {
			if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
				return err
			}
		}
		sealed, err := l.Rotate()
		if err != nil {
			return err
		}
		if err := l.Append([]byte("post-rotate")); err != nil {
			return err
		}
		if err := l.TruncateThrough(sealed); err != nil {
			return err
		}
		return l.Close()
	}
	// Learn the op count from a fault-free run.
	counting := diskfault.New(diskfault.Config{})
	if err := script(t.TempDir(), counting); err != nil {
		t.Fatalf("fault-free script: %v", err)
	}
	total := counting.Ops()
	if total < 10 {
		t.Fatalf("script too small to sweep: %d ops", total)
	}
	for k := int64(1); k <= total; k++ {
		dir := t.TempDir()
		fs := diskfault.New(diskfault.Config{CrashAfterOps: k})
		if err := script(dir, fs); err == nil {
			t.Fatalf("crash at op %d surfaced no error", k)
		}
		got, _ := replayAll(t, Config{Dir: dir})
		for i, p := range got {
			want := fmt.Sprintf("rec-%d", i)
			if i == len(got)-1 && string(p) == "post-rotate" {
				continue
			}
			if string(p) != want {
				t.Fatalf("crash at op %d: record %d = %q", k, i, p)
			}
		}
	}
}

// tornMiddleLayout builds the stranded-records layout repair exists
// for: segment with good records + a torn tail, followed by LATER good
// segments (as a pre-repair reopen would have left them). Returns the
// records that must survive: the good prefix of the torn segment only.
func tornMiddleLayout(t *testing.T, dir string) [][]byte {
	t.Helper()
	cfg := Config{Dir: dir, Policy: SyncNone}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(6)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listSegments(diskfault.OS(), dir)
	seg1 := filepath.Join(dir, segName(seqs[len(seqs)-1]))
	fi, err := os.Stat(seg1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg1, fi.Size()-25); err != nil {
		t.Fatal(err)
	}
	// Fabricate a later segment holding records that sit beyond the
	// truncation point — unreachable by replay, and what repair removes.
	stray := filepath.Join(dir, segName(seqs[len(seqs)-1]+1))
	f, err := os.Create(stray)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:4], segMagic[:])
	hdr[4] = segVersion
	for i, b := range u64le(seqs[len(seqs)-1] + 1) {
		hdr[8+i] = b
	}
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return want[:len(want)-1]
}

func u64le(v uint64) [8]byte {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// TestRepairDiscardsTornTail: reopening a log whose tail is torn
// mid-segment rewrites the good prefix in place, removes everything
// after it, and makes post-reopen appends replayable.
func TestRepairDiscardsTornTail(t *testing.T) {
	dir := t.TempDir()
	want := tornMiddleLayout(t, dir)
	cfg := Config{Dir: dir, Policy: SyncNone}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("post-repair")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := replayAll(t, cfg)
	if st.TruncatedBytes != 0 {
		t.Fatalf("repair left a torn tail: %+v", st)
	}
	if len(got) != len(want)+1 {
		t.Fatalf("replayed %d records, want %d good + 1 new", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if string(got[len(got)-1]) != "post-repair" {
		t.Fatalf("last record = %q", got[len(got)-1])
	}
}

// TestKillAnywhereRepair crashes at every mutating op of the repair
// itself and proves the invariant repair's op ordering exists for: no
// matter where repair dies, a subsequent replay returns exactly the
// good-prefix records — never more (reading past the truncation point),
// never fewer (losing validated records).
func TestKillAnywhereRepair(t *testing.T) {
	for k := int64(1); ; k++ {
		dir := t.TempDir()
		want := tornMiddleLayout(t, dir)
		faulty := diskfault.New(diskfault.Config{Seed: k, CrashAfterOps: k})
		l, err := Open(Config{Dir: dir, Policy: SyncNone, FS: faulty})
		if err == nil {
			l.Close()
		}
		if !faulty.Crashed() {
			if err != nil {
				t.Fatalf("k=%d: open failed without crash: %v", k, err)
			}
			t.Logf("repair sweep covered %d crash points", k-1)
			break
		}
		got, _ := replayAll(t, Config{Dir: dir, Policy: SyncNone})
		if len(got) != len(want) {
			t.Fatalf("k=%d: replay after crashed repair returned %d records, want %d", k, len(got), len(want))
		}
		for i := range want {
			if string(got[i]) != string(want[i]) {
				t.Fatalf("k=%d: record %d = %q, want %q", k, i, got[i], want[i])
			}
		}
		// A clean reopen finishes the repair the crash interrupted.
		l2, err := Open(Config{Dir: dir, Policy: SyncNone})
		if err != nil {
			t.Fatalf("k=%d: reopen after crashed repair: %v", k, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		got2, st2 := replayAll(t, Config{Dir: dir, Policy: SyncNone})
		if len(got2) != len(want) || st2.TruncatedBytes != 0 {
			t.Fatalf("k=%d: after finishing repair: %d records, %+v", k, len(got2), st2)
		}
	}
}

// crashAfter runs script against a counting FS to learn its op count,
// then again in a fresh directory under an FS that cuts the power at
// the first op after the script, and returns that directory.
func crashAfter(t *testing.T, seed int64, script func(dir string, fs diskfault.FS)) string {
	t.Helper()
	counting := diskfault.New(diskfault.Config{})
	script(t.TempDir(), counting)
	dir := t.TempDir()
	fs := diskfault.New(diskfault.Config{Seed: seed, CrashAfterOps: counting.Ops() + 1})
	script(dir, fs)
	if err := fs.SyncDir(dir); !errors.Is(err, diskfault.ErrCrashed) {
		t.Fatalf("crash trigger err = %v, want ErrCrashed", err)
	}
	return dir
}

// TestAppendNoSyncDurableWithNext: a record appended without a sync is
// made durable by the next Append (one fsync for both), Rotate or
// Close — and, as the control shows, by nothing else.
func TestAppendNoSyncDurableWithNext(t *testing.T) {
	ops := map[string]func(l *Log) error{
		"append": func(l *Log) error { return l.Append([]byte("commit")) },
		"rotate": func(l *Log) error { _, err := l.Rotate(); return err },
		"close":  func(l *Log) error { return l.Close() },
		"none":   func(*Log) error { return nil },
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			lost := false
			for seed := int64(1); seed <= 16; seed++ {
				var syncs int64
				dir := crashAfter(t, seed, func(dir string, fs diskfault.FS) {
					reg := telemetry.NewRegistry()
					l, err := Open(Config{Dir: dir, FS: fs, Policy: SyncEachRecord, Telemetry: reg})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { l.Close() })
					if err := l.AppendNoSync([]byte("staged")); err != nil {
						t.Fatal(err)
					}
					before := reg.Counter("wal.syncs").Value()
					if err := op(l); err != nil {
						t.Fatal(err)
					}
					syncs = reg.Counter("wal.syncs").Value() - before
				})
				if name == "append" && syncs != 1 {
					t.Fatalf("staged record + Append cost %d fsyncs, want 1", syncs)
				}
				got, _ := replayAll(t, Config{Dir: dir})
				kept := len(got) > 0 && string(got[0]) == "staged"
				if name != "none" && !kept {
					t.Fatalf("seed %d: staged record lost after %s returned: %q", seed, name, got)
				}
				lost = lost || !kept
			}
			if name == "none" && !lost {
				t.Fatal("control: 16 power cuts never lost an unsynced record")
			}
		})
	}
}

// TestAppendNoSyncNeverSyncs: under the default policy an unsynced
// append costs one write and no fsync, and is counted like any other
// record.
func TestAppendNoSyncNeverSyncs(t *testing.T) {
	reg := telemetry.NewRegistry()
	fs := diskfault.New(diskfault.Config{})
	cfg := Config{Dir: t.TempDir(), FS: fs, Telemetry: reg}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := fs.Ops()
	if err := l.AppendNoSync([]byte("staged")); err != nil {
		t.Fatal(err)
	}
	if got := fs.Ops() - before; got != 1 {
		t.Fatalf("AppendNoSync cost %d disk ops, want 1 (the write)", got)
	}
	if got := reg.Counter("wal.syncs").Value(); got != 0 {
		t.Fatalf("wal.syncs = %d, want 0", got)
	}
	if got := reg.Counter("wal.append.records").Value(); got != 1 {
		t.Fatalf("wal.append.records = %d, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := replayAll(t, cfg); len(got) != 1 {
		t.Fatalf("replayed %d records, want 1", len(got))
	}
}

// TestAppendNoSyncRefusals: a closed or poisoned log refuses an
// unsynced append with the error it gives Append.
func TestAppendNoSyncRefusals(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.AppendNoSync([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed log: err = %v, want ErrClosed", err)
	}

	// Open costs 4 ops, so the first record write (op 5) dies.
	fs := diskfault.New(diskfault.Config{CrashAfterOps: 5})
	l, err = Open(Config{Dir: t.TempDir(), FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sticky := l.Append([]byte("doomed"))
	if !errors.Is(sticky, diskfault.ErrCrashed) {
		t.Fatalf("append err = %v, want ErrCrashed", sticky)
	}
	if err := l.AppendNoSync([]byte("after")); err != sticky {
		t.Fatalf("poisoned log: err = %v, want the sticky %v", err, sticky)
	}
	if err := l.AppendNoSync(nil); err == nil {
		t.Fatal("empty unsynced record accepted")
	}
}

// TestKillAnywhereMixedAppends sweeps a power cut across every op of a
// workload that stages records with AppendNoSync and seals each group
// with a synced Append, over segment rotations. Replay must return a
// prefix of what was written that holds every record up to the last
// acknowledged Append — and some crash point must lose an unsynced
// record, or the sweep never exercised the cheap path.
func TestKillAnywhereMixedAppends(t *testing.T) {
	var all []string
	for i := 0; i < 5; i++ {
		all = append(all, fmt.Sprintf("stage-%d-a", i), fmt.Sprintf("stage-%d-b", i), fmt.Sprintf("commit-%d", i))
	}
	// script returns how many records were written and how many of them a
	// synced Append acknowledged.
	script := func(dir string, fs diskfault.FS) (written, acked int, err error) {
		l, err := Open(Config{Dir: dir, FS: fs, Policy: SyncEachRecord, SegmentBytes: 96})
		if err != nil {
			return 0, 0, err
		}
		defer l.Close()
		for i, rec := range all {
			if i%3 == 2 {
				err = l.Append([]byte(rec))
			} else {
				err = l.AppendNoSync([]byte(rec))
			}
			if err != nil {
				return written, acked, err
			}
			written++
			if i%3 == 2 {
				acked = written
			}
		}
		return written, acked, l.Close()
	}
	counting := diskfault.New(diskfault.Config{})
	if _, _, err := script(t.TempDir(), counting); err != nil {
		t.Fatalf("fault-free script: %v", err)
	}
	lostStaged := false
	for k := int64(1); k <= counting.Ops(); k++ {
		dir := t.TempDir()
		fs := diskfault.New(diskfault.Config{Seed: k, CrashAfterOps: k})
		written, acked, err := script(dir, fs)
		if err == nil {
			t.Fatalf("crash at op %d surfaced no error", k)
		}
		got, _ := replayAll(t, Config{Dir: dir})
		if len(got) < acked {
			t.Fatalf("crash at op %d: replayed %d records, %d were acknowledged", k, len(got), acked)
		}
		for i, p := range got {
			if i >= len(all) || string(p) != all[i] {
				t.Fatalf("crash at op %d: record %d = %q, not a prefix of the script", k, i, p)
			}
		}
		lostStaged = lostStaged || len(got) < written
	}
	if !lostStaged {
		t.Fatal("no crash point lost an unsynced record")
	}
	t.Logf("mixed-append sweep covered %d crash points", counting.Ops())
}
