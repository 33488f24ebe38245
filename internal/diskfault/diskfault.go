// Package diskfault is the disk-side sibling of netsim.FaultConn: an
// injectable filesystem wrapper that the durable layers (internal/wal,
// the server snapshot, the outbox spill directory) write through, so
// chaos tests can seed short writes, fsync failures, latent bit-flip
// corruption and — most importantly — crash points that cut the power
// at an arbitrary mutating operation.
//
// The crash model is power loss. When the configured crash point is
// reached, the op in flight takes partial effect (a Write persists only
// a prefix, any other op does nothing), the power is cut, and every
// later operation fails with ErrCrashed. Cutting the power drops file
// data the process never synced: every file written through the FS
// since its last Sync keeps its synced length plus a seeded prefix —
// anywhere from none to all — of its unsynced tail. Directory
// operations (Create, Rename, Remove) take effect when they return, so
// they survive the cut. The test then discards the in-memory state and
// recovers a fresh process over the same directory through a clean FS,
// seeing exactly what a machine that lost power would: synced bytes
// always, unsynced bytes maybe. This is the only crash model; a process
// kill that keeps every written byte is one of the outcomes it picks.
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
	"sort"
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
	// Seed fixes the probabilistic fault schedule and how much of each
	// unsynced tail a crash keeps.
	Seed int64
	// CrashAfterOps, when positive, cuts the power at the Nth mutating
	// operation (1-based; Create/Write/Sync/Rename/Remove/SyncDir each
	// count one). A Write at the crash point first persists the first
	// half of its bytes — a torn write — and then, like every other
	// unsynced byte, survives the cut only as far as the seeded prefix
	// reaches.
	CrashAfterOps int64
	// Panic crashes by panicking with *Crash instead of returning
	// ErrCrashed, so a single-goroutine harness can die mid-call and
	// recover at its top level.
	Panic bool
	// ShortWriteProb is the chance a Write persists only a prefix and
	// reports ErrShortWrite, as a full disk or interrupted syscall would.
	ShortWriteProb float64
	// SyncErrProb is the chance a Sync reports failure. The data may or
	// may not be durable — exactly the ambiguity real fsync errors carry;
	// a crash treats it as not durable.
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

	mu  sync.Mutex // guards rng and files
	rng *rand.Rand
	// files tracks every file created through this FS, by path, with
	// how much of it is written and how much synced: what a power cut
	// may drop.
	files map[string]*fileState

	// power orders the cut against in-flight ops: each mutating op holds
	// it for read across its effect and the cut holds it for write, so
	// no write lands after the unsynced tails are dropped.
	power   sync.RWMutex
	ops     atomic.Int64
	crashed atomic.Bool
}

// fileState is one tracked file's written and synced lengths.
type fileState struct {
	size, synced int64
}

// New wraps the real filesystem with cfg's fault schedule.
func New(cfg Config) *Faulty { return Wrap(OS(), cfg) }

// Wrap wraps an arbitrary FS with cfg's fault schedule.
func Wrap(inner FS, cfg Config) *Faulty {
	return &Faulty{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		files: make(map[string]*fileState),
	}
}

// Crashed reports whether the crash point has fired.
func (f *Faulty) Crashed() bool { return f.crashed.Load() }

// Ops returns how many mutating operations have been attempted — run a
// workload once against a counting FS to learn how many crash points a
// kill-anywhere sweep must cover.
func (f *Faulty) Ops() int64 { return f.ops.Load() }

// mutate runs one mutating op. It accounts the op; after the crash it
// fails without effect. At the crash point it runs torn (the op's
// partial effect, nil for none) and cuts the power instead of running
// apply.
func (f *Faulty) mutate(op string, torn func(), apply func() error) error {
	f.power.RLock()
	if f.crashed.Load() {
		f.power.RUnlock()
		return ErrCrashed
	}
	n := f.ops.Add(1)
	if f.cfg.CrashAfterOps <= 0 || n < f.cfg.CrashAfterOps {
		defer f.power.RUnlock()
		return apply()
	}
	f.power.RUnlock()
	if !f.crashed.CompareAndSwap(false, true) {
		return ErrCrashed // a concurrent op reached the crash point first
	}
	f.cut(torn)
	if f.cfg.Panic {
		panic(&Crash{Op: op})
	}
	return ErrCrashed
}

// cut is the power loss: once every op already past the crash check
// has finished, it applies the crash-point op's torn effect and then
// shrinks every file with unsynced data to its synced length plus a
// seeded prefix of the rest. Files are visited in path order so the
// same seed keeps the same bytes.
func (f *Faulty) cut(torn func()) {
	f.power.Lock()
	defer f.power.Unlock()
	if torn != nil {
		torn()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	paths := make([]string, 0, len(f.files))
	for p, st := range f.files {
		if st.size > st.synced {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		st := f.files[p]
		keep := st.synced + f.rng.Int63n(st.size-st.synced+1)
		// Best effort: the simulated machine is already off, so a file
		// that cannot be shrunk is left as it is.
		_ = f.shrink(p, keep)
	}
}

// shrink truncates path to its first n bytes through the inner FS,
// which has no truncate: read the prefix, recreate, write it back.
func (f *Faulty) shrink(path string, n int64) error {
	src, err := f.inner.Open(path)
	if err != nil {
		return err
	}
	buf := make([]byte, n)
	_, err = io.ReadFull(src, buf)
	src.Close()
	if err != nil {
		return err
	}
	dst, err := f.inner.Create(path)
	if err != nil {
		return err
	}
	_, err = dst.Write(buf)
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	return err
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
	var file File
	err := f.mutate("create", nil, func() error {
		inner, err := f.inner.Create(name)
		if err != nil {
			return err
		}
		st := &fileState{}
		f.mu.Lock()
		f.files[filepath.Clean(name)] = st
		f.mu.Unlock()
		file = &faultyFile{fs: f, inner: inner, st: st}
		return nil
	})
	return file, err
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

// Rename carries the file's unsynced tail to its new name: renaming
// does not make data durable.
func (f *Faulty) Rename(oldpath, newpath string) error {
	return f.mutate("rename", nil, func() error {
		if err := f.inner.Rename(oldpath, newpath); err != nil {
			return err
		}
		oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
		f.mu.Lock()
		if st, ok := f.files[oldpath]; ok {
			f.files[newpath] = st
		} else {
			delete(f.files, newpath)
		}
		delete(f.files, oldpath)
		f.mu.Unlock()
		return nil
	})
}

func (f *Faulty) Remove(name string) error {
	return f.mutate("remove", nil, func() error {
		if err := f.inner.Remove(name); err != nil {
			return err
		}
		f.mu.Lock()
		delete(f.files, filepath.Clean(name))
		f.mu.Unlock()
		return nil
	})
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
	return f.mutate("syncdir", nil, func() error {
		if f.roll(f.cfg.SyncErrProb) {
			return errors.New("diskfault: injected directory fsync error")
		}
		return f.inner.SyncDir(name)
	})
}

// faultyFile threads every write and sync through the parent schedule.
// st is nil for a file opened for reading.
type faultyFile struct {
	fs    *Faulty
	inner File
	st    *fileState
}

func (ff *faultyFile) Read(p []byte) (int, error) {
	if err := ff.fs.guardRead(); err != nil {
		return 0, err
	}
	return ff.inner.Read(p)
}

// written accounts n bytes appended to the file's unsynced tail.
func (ff *faultyFile) written(n int) {
	if ff.st == nil || n <= 0 {
		return
	}
	ff.fs.mu.Lock()
	ff.st.size += int64(n)
	ff.fs.mu.Unlock()
}

func (ff *faultyFile) Write(p []byte) (n int, err error) {
	torn := func() {
		// Torn write: the first half reaches the file before the power
		// goes. Recovery must detect the partial frame by checksum.
		n, _ = ff.inner.Write(p[:len(p)/2])
		ff.written(n)
	}
	err = ff.fs.mutate("write", torn, func() error {
		if ff.fs.roll(ff.fs.cfg.ShortWriteProb) {
			n, _ = ff.inner.Write(p[:len(p)/2])
			ff.written(n)
			return io.ErrShortWrite
		}
		data := p
		if ff.fs.roll(ff.fs.cfg.CorruptProb) && len(p) > 0 {
			ff.fs.mu.Lock()
			pos, bit := ff.fs.rng.Intn(len(p)), ff.fs.rng.Intn(8)
			ff.fs.mu.Unlock()
			data = append([]byte(nil), p...)
			data[pos] ^= 1 << bit
		}
		var werr error
		n, werr = ff.inner.Write(data)
		ff.written(n)
		return werr
	})
	return n, err
}

// Sync makes everything written so far survive a later crash. A Sync
// that is itself the crash point, or that fails, makes nothing durable.
func (ff *faultyFile) Sync() error {
	return ff.fs.mutate("sync", nil, func() error {
		if ff.fs.roll(ff.fs.cfg.SyncErrProb) {
			return errors.New("diskfault: injected fsync error")
		}
		if err := ff.inner.Sync(); err != nil {
			return err
		}
		if ff.st != nil {
			ff.fs.mu.Lock()
			ff.st.synced = ff.st.size
			ff.fs.mu.Unlock()
		}
		return nil
	})
}

func (ff *faultyFile) Close() error {
	// Closing after a crash is allowed (defers run in the dying test);
	// it just must not flush anything new — the OS file close below
	// writes nothing by itself.
	return ff.inner.Close()
}
