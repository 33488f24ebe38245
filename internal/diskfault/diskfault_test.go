package diskfault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOSRoundTrip(t *testing.T) {
	fs := OS()
	dir := t.TempDir()
	path := filepath.Join(dir, "a")
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(path, path+".2"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Open(path + ".2")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(g)
	g.Close()
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if _, err := fs.Stat(path + ".2"); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir: %v, %v", ents, err)
	}
	if err := fs.MkdirAll(filepath.Join(dir, "x/y"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(path + ".2"); err != nil {
		t.Fatal(err)
	}
}

// TestCrashFreezesDisk proves the crash stops the disk: the crash-point
// write persists at most a prefix, and nothing after the crash reaches
// the backing directory.
func TestCrashFreezesDisk(t *testing.T) {
	dir := t.TempDir()
	fs := New(Config{CrashAfterOps: 4}) // create(1), write(2), sync(3), write(4) = crash
	f, err := fs.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("bbbb")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash-point write err = %v, want ErrCrashed", err)
	}
	if !fs.Crashed() {
		t.Fatal("Crashed() false after crash point")
	}
	// Every later op fails without effect.
	if _, err := f.Write([]byte("cccc")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write err = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync err = %v", err)
	}
	if _, err := fs.Create(filepath.Join(dir, "g")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash create err = %v", err)
	}
	if err := fs.Rename(filepath.Join(dir, "f"), filepath.Join(dir, "h")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash rename err = %v", err)
	}
	if err := fs.Remove(filepath.Join(dir, "f")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash remove err = %v", err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash syncdir err = %v", err)
	}
	if _, err := fs.Open(filepath.Join(dir, "f")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash open err = %v", err)
	}
	if _, err := fs.ReadDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash readdir err = %v", err)
	}
	if _, err := fs.Stat(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash stat err = %v", err)
	}
	if err := fs.MkdirAll(filepath.Join(dir, "m"), 0o755); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash mkdirall err = %v", err)
	}
	f.Close() // allowed: defers run in the dying process

	// A clean FS over the same directory sees the torn state: the synced
	// first write plus at most half of the crash-point write.
	if got := string(readAll(t, filepath.Join(dir, "f"))); !strings.HasPrefix("aaaabb", got) || len(got) < 4 {
		t.Fatalf("disk frozen at %q, want %q plus a prefix of %q", got, "aaaa", "bb")
	}
}

// powerLossRun writes a synced head and an unsynced tail to a fresh
// file, cuts the power at the next op, and returns what survived.
func powerLossRun(t *testing.T, seed int64, head, tail string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	fs := New(Config{Seed: seed, CrashAfterOps: 5}) // create, write, sync, write, crash
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(head)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(tail)); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash-point op err = %v, want ErrCrashed", err)
	}
	f.Close()
	return string(readAll(t, path))
}

// TestPowerLossDropsUnsyncedTail: across seeds, a crash keeps the
// synced head every time, keeps some prefix of the unsynced tail, and
// sometimes drops that tail entirely.
func TestPowerLossDropsUnsyncedTail(t *testing.T) {
	const head, tail = "synced-head|", "unsynced-tail-bytes"
	lostAll, keptSome := false, false
	for seed := int64(1); seed <= 64; seed++ {
		got := powerLossRun(t, seed, head, tail)
		if !strings.HasPrefix(got, head) {
			t.Fatalf("seed %d: synced head lost: %q", seed, got)
		}
		if !strings.HasPrefix(head+tail, got) {
			t.Fatalf("seed %d: survivor %q is not a prefix of what was written", seed, got)
		}
		lostAll = lostAll || got == head
		keptSome = keptSome || len(got) > len(head)
	}
	if !lostAll || !keptSome {
		t.Fatalf("64 seeds never lost the whole tail (%v) or never kept part of it (%v)", lostAll, keptSome)
	}
}

// TestPowerLossDeterministic: the same seed keeps the same bytes.
func TestPowerLossDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		a := powerLossRun(t, seed, "h", "0123456789abcdef0123456789abcdef")
		b := powerLossRun(t, seed, "h", "0123456789abcdef0123456789abcdef")
		if a != b {
			t.Fatalf("seed %d: crash kept %q, then %q", seed, a, b)
		}
	}
}

// TestPowerLossFollowsRenameAndClose: renaming or closing a file does
// not make its data durable, a synced file is untouched by the cut, and
// a removed file is forgotten.
func TestPowerLossFollowsRenameAndClose(t *testing.T) {
	dir := t.TempDir()
	join := func(name string) string { return filepath.Join(dir, name) }
	write := func(fs *Faulty, name, data string, sync bool) {
		f, err := fs.Create(join(name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(data)); err != nil {
			t.Fatal(err)
		}
		if sync {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Find a seed whose cut drops the renamed file's whole tail: the
	// classic "renamed before fsync" empty file.
	for seed := int64(1); ; seed++ {
		if seed > 64 {
			t.Fatal("no seed in 64 dropped an unsynced renamed file")
		}
		for _, name := range []string{"moved", "kept", "gone"} {
			os.Remove(join(name))
		}
		fs := New(Config{Seed: seed})
		write(fs, "tmp", "never-synced", false)
		if err := fs.Rename(join("tmp"), join("moved")); err != nil {
			t.Fatal(err)
		}
		write(fs, "kept", "synced", true)
		write(fs, "gone", "unsynced", false)
		if err := fs.Remove(join("gone")); err != nil {
			t.Fatal(err)
		}
		fs.cfg.CrashAfterOps = fs.Ops() + 1
		if err := fs.SyncDir(dir); !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash-point op err = %v", err)
		}
		if got := string(readAll(t, join("kept"))); got != "synced" {
			t.Fatalf("seed %d: synced file became %q", seed, got)
		}
		if _, err := os.Stat(join("gone")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("seed %d: removed file resurfaced: %v", seed, err)
		}
		got := string(readAll(t, join("moved")))
		if !strings.HasPrefix("never-synced", got) {
			t.Fatalf("seed %d: renamed file holds %q", seed, got)
		}
		if got == "" {
			return
		}
	}
}

func TestCrashPanic(t *testing.T) {
	dir := t.TempDir()
	fs := New(Config{CrashAfterOps: 2, Panic: true})
	f, err := fs.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			r := recover()
			c, ok := r.(*Crash)
			if !ok {
				t.Fatalf("recovered %v, want *Crash", r)
			}
			if c.Op != "write" || c.Error() == "" {
				t.Fatalf("crash op %q", c.Op)
			}
		}()
		f.Write([]byte("xxxx"))
		t.Fatal("write did not panic")
	}()
	if !fs.Crashed() {
		t.Fatal("Crashed() false after panic crash")
	}
}

func TestOpsCounting(t *testing.T) {
	dir := t.TempDir()
	fs := New(Config{})
	f, _ := fs.Create(filepath.Join(dir, "f")) // op 1
	f.Write([]byte("x"))                       // op 2
	f.Sync()                                   // op 3
	f.Close()
	fs.Rename(filepath.Join(dir, "f"), filepath.Join(dir, "g")) // op 4
	fs.SyncDir(dir)                                             // op 5
	fs.Remove(filepath.Join(dir, "g"))                          // op 6
	if got := fs.Ops(); got != 6 {
		t.Fatalf("Ops() = %d, want 6", got)
	}
}

func TestShortWrite(t *testing.T) {
	dir := t.TempDir()
	fs := New(Config{Seed: 1, ShortWriteProb: 1})
	f, err := fs.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err = %v, want ErrShortWrite", err)
	}
	if n != 3 {
		t.Fatalf("short write persisted %d bytes, want 3", n)
	}
	f.Close()
	if got := readAll(t, filepath.Join(dir, "f")); string(got) != "abc" {
		t.Fatalf("on disk: %q", got)
	}
}

func TestSyncError(t *testing.T) {
	dir := t.TempDir()
	fs := New(Config{Seed: 2, SyncErrProb: 1})
	f, err := fs.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err == nil {
		t.Fatal("injected sync error did not fire")
	}
	f.Close()
	if err := fs.SyncDir(dir); err == nil {
		t.Fatal("injected dir sync error did not fire")
	}
}

// TestCorruptWrite: the write reports success for the full length but
// the stored bytes differ in exactly one bit.
func TestCorruptWrite(t *testing.T) {
	dir := t.TempDir()
	fs := New(Config{Seed: 3, CorruptProb: 1})
	f, err := fs.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("abcdefgh")
	n, err := f.Write(data)
	if err != nil || n != len(data) {
		t.Fatalf("corrupt write: n=%d err=%v", n, err)
	}
	f.Close()
	got := readAll(t, filepath.Join(dir, "f"))
	if len(got) != len(data) {
		t.Fatalf("length changed: %d", len(got))
	}
	diffBits := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^data[i])>>b&1 == 1 {
				diffBits++
			}
		}
	}
	if diffBits != 1 {
		t.Fatalf("%d bits flipped, want exactly 1", diffBits)
	}
	// The caller's buffer must not be mutated.
	if string(data) != "abcdefgh" {
		t.Fatalf("caller buffer mutated: %q", data)
	}
}

// TestDeterministicSchedule: same seed, same fault decisions.
func TestDeterministicSchedule(t *testing.T) {
	run := func() []bool {
		dir := t.TempDir()
		fs := New(Config{Seed: 77, ShortWriteProb: 0.5})
		f, _ := fs.Create(filepath.Join(dir, "f"))
		defer f.Close()
		var outcome []bool
		for i := 0; i < 32; i++ {
			_, err := f.Write([]byte("0123456789"))
			outcome = append(outcome, err == nil)
		}
		return outcome
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at op %d", i)
		}
	}
}

// TestPowerLossConcurrentWriters: writers on several goroutines race
// the crash. Whatever interleaving the scheduler picks, each file ends
// as a prefix of what its writer wrote that holds everything the writer
// saw synced — no write lands after the cut.
func TestPowerLossConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	fs := New(Config{Seed: 5, CrashAfterOps: 60})
	const writers = 4
	var wg sync.WaitGroup
	wrote := make([]string, writers)
	synced := make([]int, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f, err := fs.Create(filepath.Join(dir, fmt.Sprint(g)))
			if err != nil {
				return
			}
			defer f.Close()
			for i := 0; ; i++ {
				chunk := fmt.Sprintf("%d-%d;", g, i)
				n, err := f.Write([]byte(chunk))
				wrote[g] += chunk[:n]
				if err != nil {
					return
				}
				if i%3 == 2 {
					if f.Sync() != nil {
						return
					}
					synced[g] = len(wrote[g])
				}
			}
		}(g)
	}
	wg.Wait()
	if !fs.Crashed() {
		t.Fatal("writers stopped without a crash")
	}
	for g := 0; g < writers; g++ {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprint(g)))
		if errors.Is(err, os.ErrNotExist) && wrote[g] == "" {
			continue // its Create came after the crash
		}
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(wrote[g], string(got)) || len(got) < synced[g] {
			t.Fatalf("writer %d: file holds %q; wrote %q, synced %d bytes", g, got, wrote[g], synced[g])
		}
	}
}
