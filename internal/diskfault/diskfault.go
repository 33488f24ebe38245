// Package diskfault is the disk-side sibling of netsim.FaultConn: an
// injectable filesystem wrapper that the durable layers (internal/wal,
// the server snapshot, the outbox spill directory) write through, so
// chaos tests can seed short writes, fsync failures, latent bit-flip
// corruption and — most importantly — crash points that freeze the
// "disk" at an arbitrary write boundary.
//
// The crash model is kill-anywhere: when the configured crash point is
// reached, the op in flight takes partial effect (a Write persists only
// a prefix, any other op does nothing) and every later operation fails
// with ErrCrashed. Nothing written after the crash point reaches the
// backing directory, exactly as if the process had been SIGKILLed at
// that instant. The test then discards the in-memory state and recovers
// a fresh process over the same directory through a clean FS.
//
// All probabilistic faults draw from a deterministic seeded RNG, so a
// failing chaos run replays exactly.
package diskfault

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// ErrCrashed is returned by every operation after the crash point has
// fired: the simulated machine is off, the disk holds whatever had been
// persisted, and only a fresh FS over the same directory can read it.
var ErrCrashed = errors.New("diskfault: crashed")

// Crash is the value panicked when Config.Panic is set — single-
// goroutine harnesses recover it to simulate dying mid-call.
type Crash struct{ Op string }

func (c *Crash) Error() string { return "diskfault: crash panic in " + c.Op }

// File is the handle surface the durable layers need: sequential reads
// and writes plus explicit durability.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
}

// FS is the filesystem surface the durable layers write through. OS()
// is the real implementation; Faulty wraps any FS with injected faults.
type FS interface {
	// Create truncates-or-creates name for writing.
	Create(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (File, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs a directory, making renames and unlinks inside it
	// durable — the half of atomic-rename persistence os.Rename alone
	// does not provide.
	SyncDir(name string) error
}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error) {
	return os.ReadDir(name)
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(filepath.Clean(name))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Config describes how a Faulty filesystem misbehaves. The zero value
// injects nothing.
type Config struct {
	// Seed fixes the probabilistic fault schedule.
	Seed int64
	// CrashAfterOps, when positive, crashes the filesystem at the Nth
	// mutating operation (1-based; Create/Write/Sync/Rename/Remove/
	// SyncDir each count one). A Write at the crash point persists only
	// the first half of its bytes — a torn write — before dying.
	CrashAfterOps int64
	// Panic crashes by panicking with *Crash instead of returning
	// ErrCrashed, so a single-goroutine harness can die mid-call and
	// recover at its top level.
	Panic bool
	// ShortWriteProb is the chance a Write persists only a prefix and
	// reports ErrShortWrite, as a full disk or interrupted syscall would.
	ShortWriteProb float64
	// SyncErrProb is the chance a Sync reports failure. The data may or
	// may not be durable — exactly the ambiguity real fsync errors carry.
	SyncErrProb float64
	// CorruptProb is the chance a Write flips one bit of its data and
	// then "succeeds" — latent corruption only checksums catch later.
	CorruptProb float64
}

// Faulty wraps an FS with the configured fault schedule. Safe for
// concurrent use.
type Faulty struct {
	inner FS
	cfg   Config

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	ops     atomic.Int64
	crashed atomic.Bool
}

// New wraps the real filesystem with cfg's fault schedule.
func New(cfg Config) *Faulty { return Wrap(OS(), cfg) }

// Wrap wraps an arbitrary FS with cfg's fault schedule.
func Wrap(inner FS, cfg Config) *Faulty {
	return &Faulty{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Crashed reports whether the crash point has fired.
func (f *Faulty) Crashed() bool { return f.crashed.Load() }

// Ops returns how many mutating operations have been attempted — run a
// workload once against a counting FS to learn how many crash points a
// kill-anywhere sweep must cover.
func (f *Faulty) Ops() int64 { return f.ops.Load() }

// step accounts one mutating op and reports whether this op is the
// crash point. After the crash every op fails without effect.
func (f *Faulty) step(op string) (crashNow bool, err error) {
	if f.crashed.Load() {
		return false, ErrCrashed
	}
	n := f.ops.Add(1)
	if f.cfg.CrashAfterOps > 0 && n >= f.cfg.CrashAfterOps {
		f.crashed.Store(true)
		return true, nil
	}
	return false, nil
}

// die finishes a crash: panic or error per config.
func (f *Faulty) die(op string) error {
	if f.cfg.Panic {
		panic(&Crash{Op: op})
	}
	return ErrCrashed
}

// roll draws one probability check from the seeded stream.
func (f *Faulty) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	f.mu.Lock()
	hit := f.rng.Float64() < p
	f.mu.Unlock()
	return hit
}

func (f *Faulty) guardRead() error {
	if f.crashed.Load() {
		return ErrCrashed
	}
	return nil
}

func (f *Faulty) Create(name string) (File, error) {
	crash, err := f.step("create")
	if err != nil {
		return nil, err
	}
	if crash {
		return nil, f.die("create")
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: file}, nil
}

func (f *Faulty) Open(name string) (File, error) {
	if err := f.guardRead(); err != nil {
		return nil, err
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: file}, nil
}

func (f *Faulty) ReadDir(name string) ([]os.DirEntry, error) {
	if err := f.guardRead(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

func (f *Faulty) Rename(oldpath, newpath string) error {
	crash, err := f.step("rename")
	if err != nil {
		return err
	}
	if crash {
		return f.die("rename")
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Faulty) Remove(name string) error {
	crash, err := f.step("remove")
	if err != nil {
		return err
	}
	if crash {
		return f.die("remove")
	}
	return f.inner.Remove(name)
}

func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	if err := f.guardRead(); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *Faulty) Stat(name string) (os.FileInfo, error) {
	if err := f.guardRead(); err != nil {
		return nil, err
	}
	return f.inner.Stat(name)
}

func (f *Faulty) SyncDir(name string) error {
	crash, err := f.step("syncdir")
	if err != nil {
		return err
	}
	if crash {
		return f.die("syncdir")
	}
	if f.roll(f.cfg.SyncErrProb) {
		return errors.New("diskfault: injected directory fsync error")
	}
	return f.inner.SyncDir(name)
}

// faultyFile threads every write and sync through the parent schedule.
type faultyFile struct {
	fs    *Faulty
	inner File
}

func (ff *faultyFile) Read(p []byte) (int, error) {
	if err := ff.fs.guardRead(); err != nil {
		return 0, err
	}
	return ff.inner.Read(p)
}

func (ff *faultyFile) Write(p []byte) (int, error) {
	crash, err := ff.fs.step("write")
	if err != nil {
		return 0, err
	}
	if crash {
		// Torn write: the first half reaches the disk, then the machine
		// dies. Recovery must detect the partial frame by checksum.
		n, _ := ff.inner.Write(p[:len(p)/2])
		return n, ff.fs.die("write")
	}
	if ff.fs.roll(ff.fs.cfg.ShortWriteProb) {
		n, _ := ff.inner.Write(p[:len(p)/2])
		return n, io.ErrShortWrite
	}
	if ff.fs.roll(ff.fs.cfg.CorruptProb) && len(p) > 0 {
		ff.fs.mu.Lock()
		pos, bit := ff.fs.rng.Intn(len(p)), ff.fs.rng.Intn(8)
		ff.fs.mu.Unlock()
		tainted := append([]byte(nil), p...)
		tainted[pos] ^= 1 << bit
		n, err := ff.inner.Write(tainted)
		if err != nil {
			return n, err
		}
		return len(p), nil
	}
	return ff.inner.Write(p)
}

func (ff *faultyFile) Sync() error {
	crash, err := ff.fs.step("sync")
	if err != nil {
		return err
	}
	if crash {
		// The data may have reached the platter before the crash; what is
		// guaranteed lost is the *acknowledgement*. Leave the bytes as
		// written and die.
		return ff.fs.die("sync")
	}
	if ff.fs.roll(ff.fs.cfg.SyncErrProb) {
		return errors.New("diskfault: injected fsync error")
	}
	return ff.inner.Sync()
}

func (ff *faultyFile) Close() error {
	// Closing after a crash is allowed (defers run in the dying test);
	// it just must not flush anything new — the OS file close below
	// writes nothing by itself.
	return ff.inner.Close()
}
