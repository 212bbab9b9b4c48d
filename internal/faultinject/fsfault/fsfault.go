package fsfault

import (
	"errors"
	"os"
	"path/filepath"
	"sync"

	"dcstream/internal/journal"
)

// FSFault identifies one class of filesystem operation an FS can be told to
// fail. Faults are scheduled by operation class rather than by path: the
// journal's degraded-mode contract is about *what kind* of syscall failed
// (append vs fsync vs rename), and a test that wants a specific file can
// arm the fault right before the call that touches it.
type FSFault int

const (
	// FaultWrite fails File.Write on open segment/sidecar handles (ENOSPC).
	FaultWrite FSFault = iota
	// FaultSync fails File.Sync (EIO at the worst possible moment: the data
	// may or may not have reached the platter).
	FaultSync
	// FaultOpen fails FS.OpenAppend (segment rotation, re-arm probes).
	FaultOpen
	// FaultRename fails FS.Rename (segment quarantine moves).
	FaultRename
	// FaultTruncate fails FS.Truncate (torn-tail repair).
	FaultTruncate
	// FaultSyncDir fails FS.SyncDir (directory-entry durability).
	FaultSyncDir
	numFSFaults
)

// FS wraps a journal.FS with injectable failures, so degraded-mode state
// machines are testable without filling a real disk. The zero value is not
// usable; use NewFS. All methods are safe for concurrent use.
//
// Two knobs per fault class, composable:
//
//   - FailNext(fault, n, err): the next n operations of that class return
//     err (then the counter is spent and operations succeed again) — the
//     "disk filled up, then the operator freed space" script.
//   - ShortWriteNext(n): the next n File.Writes write only half their bytes
//     to the underlying file before returning an error — the torn-frame
//     case the journal's offset reconciliation exists for.
//
// Operations performed before the corresponding arm call are untouched, so
// a test can let Open succeed normally and then script faults against the
// running journal.
//
// Besides failed syscalls the FS models lost page cache: for every file
// opened through OpenAppend it tracks how many bytes the last successful
// File.Sync covered, and PowerCut materialises the directory as a power loss
// would leave it — the difference between a process crash (everything
// written survives) and an OS crash (only what was synced does).
type FS struct {
	inner journal.FS

	mu    sync.Mutex
	fail  [numFSFaults]int   // guarded by mu; remaining failures per class
	errs  [numFSFaults]error // guarded by mu; error to return per class
	short int                // guarded by mu; remaining short writes
	ops   [numFSFaults]int   // guarded by mu; operations seen per class
	files map[string]*extent // guarded by mu; by the path OpenAppend was given
}

// extent is one tracked file's length and the prefix of it known durable.
type extent struct{ size, synced int64 }

// NewFS wraps inner (nil means the real filesystem) with no faults armed.
func NewFS(inner journal.FS) *FS {
	if inner == nil {
		inner = journal.OSFS{}
	}
	return &FS{inner: inner, files: map[string]*extent{}}
}

// FailNext arms the next n operations of the given class to return err.
// n <= 0 disarms the class.
func (f *FS) FailNext(fault FSFault, n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		f.fail[fault], f.errs[fault] = 0, nil
		return
	}
	f.fail[fault], f.errs[fault] = n, err
}

// ShortWriteNext arms the next n File.Writes to write only half their bytes
// before failing — a torn frame on disk plus an error in hand, the exact
// shape of a mid-write ENOSPC.
func (f *FS) ShortWriteNext(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.short = n
}

// Ops reports how many operations of the class have been attempted (armed
// faults included), for tests asserting the journal actually retried.
func (f *FS) Ops(fault FSFault) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops[fault]
}

// take consumes one armed failure of the class, returning the scripted
// error or nil.
func (f *FS) take(fault FSFault) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops[fault]++
	if f.fail[fault] > 0 {
		f.fail[fault]--
		return f.errs[fault]
	}
	return nil
}

// takeShort consumes one armed short write, reporting whether this write
// should tear.
func (f *FS) takeShort() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.short > 0 {
		f.short--
		return true
	}
	return false
}

func (f *FS) MkdirAll(dir string) error                 { return f.inner.MkdirAll(dir) }
func (f *FS) ReadDir(dir string) ([]os.DirEntry, error) { return f.inner.ReadDir(dir) }
func (f *FS) ReadFile(name string) ([]byte, error)      { return f.inner.ReadFile(name) }

func (f *FS) OpenAppend(name string) (journal.File, error) {
	if err := f.take(FaultOpen); err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	inner, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	if err := f.track(name); err != nil {
		return nil, errors.Join(err, inner.Close())
	}
	return &faultFile{fs: f, name: name, inner: inner}, nil
}

// track starts following name's synced extent, unless it is followed already.
// Bytes a file holds when this FS first sees it are a previous life's, and
// count as synced.
func (f *FS) track(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.files[name] != nil {
		return nil
	}
	data, err := f.inner.ReadFile(name)
	if err != nil {
		return err
	}
	f.files[name] = &extent{size: int64(len(data)), synced: int64(len(data))}
	return nil
}

// withExtent runs fn on name's extent if the FS follows it.
func (f *FS) withExtent(name string, fn func(*extent)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ext := f.files[name]; ext != nil {
		fn(ext)
	}
}

// moved re-files oldname's extent under newname; an empty newname drops it.
func (f *FS) moved(oldname, newname string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ext := f.files[oldname]; ext != nil && newname != "" {
		f.files[newname] = ext
	}
	delete(f.files, oldname)
}

func (f *FS) Remove(name string) error {
	err := f.inner.Remove(name)
	if err == nil {
		f.moved(name, "")
	}
	return err
}

func (f *FS) Rename(oldname, newname string) error {
	if err := f.take(FaultRename); err != nil {
		return &os.LinkError{Op: "rename", Old: oldname, New: newname, Err: err}
	}
	err := f.inner.Rename(oldname, newname)
	if err == nil {
		f.moved(oldname, newname)
	}
	return err
}

func (f *FS) Truncate(name string, size int64) error {
	if err := f.take(FaultTruncate); err != nil {
		return &os.PathError{Op: "truncate", Path: name, Err: err}
	}
	err := f.inner.Truncate(name, size)
	if err == nil {
		f.withExtent(name, func(ext *extent) {
			ext.size = size
			ext.synced = min(ext.synced, size)
		})
	}
	return err
}

// PowerCut writes into dst what a power loss right now would leave of the
// directory src: every file, cut back to the length its last successful Sync
// covered if it was opened through this FS, whole otherwise (a previous
// life's). Directory entries are taken as they stand — entry durability is
// FaultSyncDir's subject, not this model's — and subdirectories are followed.
func (f *FS) PowerCut(src, dst string) error {
	entries, err := f.inner.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, ent := range entries {
		from, to := filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())
		if ent.IsDir() {
			if err := f.PowerCut(from, to); err != nil {
				return err
			}
			continue
		}
		data, err := f.inner.ReadFile(from)
		if err != nil {
			return err
		}
		f.withExtent(from, func(ext *extent) { data = data[:min(ext.synced, int64(len(data)))] })
		if err := os.WriteFile(to, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (f *FS) SyncDir(dir string) error {
	if err := f.take(FaultSyncDir); err != nil {
		return &os.PathError{Op: "fsync", Path: dir, Err: err}
	}
	return f.inner.SyncDir(dir)
}

// faultFile routes a File's write/sync calls back through the owning FS's
// fault schedule.
type faultFile struct {
	fs    *FS
	name  string
	inner journal.File
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.fs.takeShort() {
		// Half the bytes land before the "disk" fails: the torn-frame shape
		// offset reconciliation must repair.
		n, err := f.write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, &os.PathError{Op: "write", Path: f.name, Err: errShortWrite}
	}
	if err := f.fs.take(FaultWrite); err != nil {
		return 0, &os.PathError{Op: "write", Path: f.name, Err: err}
	}
	return f.write(p)
}

// write passes p to the real file and grows the tracked length by what
// landed.
func (f *faultFile) write(p []byte) (int, error) {
	n, err := f.inner.Write(p)
	f.fs.withExtent(f.name, func(ext *extent) { ext.size += int64(n) })
	return n, err
}

func (f *faultFile) Sync() error {
	if err := f.fs.take(FaultSync); err != nil {
		return &os.PathError{Op: "sync", Path: f.name, Err: err}
	}
	err := f.inner.Sync()
	if err == nil {
		// The journal never writes a file while syncing it, so everything
		// written so far is what the fsync covered.
		f.fs.withExtent(f.name, func(ext *extent) { ext.synced = ext.size })
	}
	return err
}

func (f *faultFile) Close() error { return f.inner.Close() }

// errShortWrite is distinct from io.ErrShortWrite so tests can tell an
// injected tear from a genuine one.
var errShortWrite = errors.New("faultinject: injected short write")
