package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Op classifies the counted (mutating or durability-relevant)
// filesystem operations FaultFS can inject faults into. Read-only
// operations are not counted, so operation numbers stay deterministic
// even when the store replays segments on parallel readers.
type Op uint8

// Counted operations.
const (
	// OpCreate is an OpenFile call that creates or truncates a file.
	OpCreate Op = iota
	// OpWrite is one File.Write call.
	OpWrite
	// OpSync is a File.Sync (fsync) call.
	OpSync
	// OpTruncate is a File.Truncate call.
	OpTruncate
	// OpRename is a Rename call.
	OpRename
	// OpRemove is a Remove call.
	OpRemove
	// OpSyncDir is a SyncDir (directory fsync) call.
	OpSyncDir

	numOps
)

var opNames = [numOps]string{"create", "write", "sync", "truncate", "rename", "remove", "syncdir"}

// String names the operation.
func (o Op) String() string {
	if int(o) >= int(numOps) {
		return "op(?)"
	}
	return opNames[o]
}

// fnode is one file's contents: the live data plus the prefix made
// durable by the last fsync. A power cut reverts data to synced (plus
// an optional torn prefix of the un-synced tail).
type fnode struct {
	data   []byte
	synced []byte
}

// FaultFS is a deterministic in-memory filesystem with an injectable
// fault surface and a two-level durability model:
//
//   - file *data* becomes durable on File.Sync — a power cut reverts
//     each file to its last-synced content (optionally keeping a torn
//     prefix of the un-synced tail, modelling a partial platter write);
//   - directory *entries* (creations, renames, removals) become durable
//     on SyncDir — a power cut reverts the namespace to the last
//     directory fsync, so an un-synced rename rolls back and an
//     un-synced creation disappears, exactly the pessimistic POSIX
//     crash contract the store must survive.
//
// Every counted operation (see Op) first reports to OnOp (with a deep
// snapshot of the pre-operation state — the crash-consistency matrix
// enumerates these) and then consults Inject, which may fail it.
// Returning an error wrapping io.ErrShortWrite from Inject on an
// OpWrite makes the write consume half the buffer before failing.
//
// Safe for concurrent use; directories created via MkdirAll are
// considered durable immediately (the store only ever creates its root).
type FaultFS struct {
	mu      sync.Mutex
	files   map[string]*fnode
	durable map[string]*fnode
	dirs    map[string]bool
	locks   map[string]*flockState
	n       int

	// Inject, when set, is consulted before every counted operation
	// with the 1-based operation number; a non-nil return fails the
	// operation with that error.
	Inject func(n int, op Op, path string) error
	// OnOp, when set, observes every counted operation just before it
	// executes, with a deep snapshot of the filesystem state (hooks
	// must not call back into the receiver).
	OnOp func(n int, op Op, path string, snapshot *FaultFS)
	// NoFlock makes Flock fail with errors.ErrUnsupported, forcing
	// callers onto their lease-file fallback path.
	NoFlock bool
}

type flockState struct {
	excl    bool
	holders int
}

// NewFaultFS returns an empty in-memory filesystem.
func NewFaultFS() *FaultFS {
	return &FaultFS{
		files:   make(map[string]*fnode),
		durable: make(map[string]*fnode),
		dirs:    make(map[string]bool),
		locks:   make(map[string]*flockState),
	}
}

// FailOp arranges operation n to fail with err (a one-line Inject).
func (f *FaultFS) FailOp(n int, err error) {
	f.Inject = func(i int, _ Op, _ string) error {
		if i == n {
			return err
		}
		return nil
	}
}

// Ops returns the number of counted operations performed so far.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// beginOp assigns the operation number, fires OnOp and consults
// Inject. Caller holds f.mu.
func (f *FaultFS) beginOp(op Op, path string) error {
	f.n++
	if f.OnOp != nil {
		f.OnOp(f.n, op, path, f.cloneLocked())
	}
	if f.Inject != nil {
		return f.Inject(f.n, op, path)
	}
	return nil
}

// Clone returns a deep copy of the filesystem state (hooks and lock
// holders are not carried over — a snapshot is inert).
func (f *FaultFS) Clone() *FaultFS {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cloneLocked()
}

func (f *FaultFS) cloneLocked() *FaultFS {
	nf := NewFaultFS()
	nf.n = f.n
	seen := make(map[*fnode]*fnode, len(f.files)+len(f.durable))
	cp := func(nd *fnode) *fnode {
		if c, ok := seen[nd]; ok {
			return c
		}
		c := &fnode{data: append([]byte(nil), nd.data...), synced: append([]byte(nil), nd.synced...)}
		seen[nd] = c
		return c
	}
	for name, nd := range f.files {
		nf.files[name] = cp(nd)
	}
	for name, nd := range f.durable {
		nf.durable[name] = cp(nd)
	}
	for d := range f.dirs {
		nf.dirs[d] = true
	}
	return nf
}

// Crash simulates a power cut: the namespace reverts to the last
// directory fsync, every file's data reverts to its last fsync, and
// all advisory locks are released. tornBytes > 0 additionally keeps
// that many bytes of each file's un-synced tail — a torn write that
// made it to the platter before the power died.
func (f *FaultFS) Crash(tornBytes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.locks = make(map[string]*flockState)
	files := make(map[string]*fnode, len(f.durable))
	for name, nd := range f.durable {
		data := append([]byte(nil), nd.synced...)
		if tornBytes > 0 && len(nd.data) > len(nd.synced) {
			tail := nd.data[len(nd.synced):]
			data = append(data, tail[:min(tornBytes, len(tail))]...)
		}
		nd.data = data
		nd.synced = append([]byte(nil), data...)
		files[name] = nd
	}
	f.files = files
	f.durable = make(map[string]*fnode, len(files))
	for name, nd := range files {
		f.durable[name] = nd
	}
}

// --- FS implementation ---

func pathErr(op, path string, err error) error {
	return &fs.PathError{Op: op, Path: path, Err: err}
}

// OpenFile opens name. O_CREATE creates missing files, O_EXCL rejects
// existing ones, O_TRUNC empties; creation and truncation count as one
// OpCreate operation.
func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	name = filepath.Clean(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	nd, exists := f.files[name]
	switch {
	case exists && flag&os.O_EXCL != 0 && flag&os.O_CREATE != 0:
		return nil, pathErr("open", name, fs.ErrExist)
	case !exists && flag&os.O_CREATE == 0:
		return nil, pathErr("open", name, fs.ErrNotExist)
	}
	mutates := !exists || (flag&os.O_TRUNC != 0 && len(nd.data) > 0)
	if mutates {
		if err := f.beginOp(OpCreate, name); err != nil {
			return nil, pathErr("open", name, err)
		}
	}
	if !exists {
		nd = &fnode{}
		f.files[name] = nd
	} else if flag&os.O_TRUNC != 0 {
		nd.data = nil
	}
	return &memFile{fs: f, node: nd, path: name}, nil
}

// Rename replaces newpath with oldpath (atomic, like POSIX rename).
func (f *FaultFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	f.mu.Lock()
	defer f.mu.Unlock()
	nd, ok := f.files[oldpath]
	if !ok {
		return pathErr("rename", oldpath, fs.ErrNotExist)
	}
	if err := f.beginOp(OpRename, newpath); err != nil {
		return pathErr("rename", newpath, err)
	}
	delete(f.files, oldpath)
	f.files[newpath] = nd
	return nil
}

// Remove deletes a file.
func (f *FaultFS) Remove(name string) error {
	name = filepath.Clean(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[name]; !ok {
		return pathErr("remove", name, fs.ErrNotExist)
	}
	if err := f.beginOp(OpRemove, name); err != nil {
		return pathErr("remove", name, err)
	}
	delete(f.files, name)
	return nil
}

// ReadDir lists dir's direct children, sorted by name.
func (f *FaultFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	dir = filepath.Clean(dir)
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.dirs[dir] {
		return nil, pathErr("readdir", dir, fs.ErrNotExist)
	}
	var out []fs.DirEntry
	add := func(name string, isDir bool) {
		rest, ok := childOf(dir, name)
		if ok {
			out = append(out, memDirEntry{name: rest, dir: isDir})
		}
	}
	for name := range f.files {
		add(name, false)
	}
	for name := range f.dirs {
		add(name, true)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// childOf reports whether name is a direct child of dir, returning the
// base name.
func childOf(dir, name string) (string, bool) {
	prefix := dir + string(filepath.Separator)
	if dir == "." {
		prefix = ""
	}
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok || rest == "" || strings.ContainsRune(rest, filepath.Separator) {
		return "", false
	}
	return rest, true
}

// ReadFile reads a whole file.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	name = filepath.Clean(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	nd, ok := f.files[name]
	if !ok {
		return nil, pathErr("open", name, fs.ErrNotExist)
	}
	return append([]byte(nil), nd.data...), nil
}

// Stat describes a file or directory.
func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	name = filepath.Clean(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	if nd, ok := f.files[name]; ok {
		return memInfo{name: filepath.Base(name), size: int64(len(nd.data))}, nil
	}
	if f.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, pathErr("stat", name, fs.ErrNotExist)
}

// MkdirAll creates dir and its parents. Directories are modelled as
// immediately durable.
func (f *FaultFS) MkdirAll(dir string, perm fs.FileMode) error {
	dir = filepath.Clean(dir)
	f.mu.Lock()
	defer f.mu.Unlock()
	for d := dir; ; d = filepath.Dir(d) {
		f.dirs[d] = true
		if parent := filepath.Dir(d); parent == d {
			break
		}
	}
	return nil
}

// SyncDir makes dir's current entries durable: creations and renames
// under dir survive a Crash from here on.
func (f *FaultFS) SyncDir(dir string) error {
	dir = filepath.Clean(dir)
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.dirs[dir] {
		return pathErr("syncdir", dir, fs.ErrNotExist)
	}
	if err := f.beginOp(OpSyncDir, dir); err != nil {
		return pathErr("syncdir", dir, err)
	}
	for name := range f.durable {
		if _, ok := childOf(dir, name); ok {
			if _, live := f.files[name]; !live {
				delete(f.durable, name)
			}
		}
	}
	for name, nd := range f.files {
		if _, ok := childOf(dir, name); ok {
			f.durable[name] = nd
		}
	}
	return nil
}

// Flock emulates the advisory lock table (in-process; a FaultFS never
// outlives its test). NoFlock forces the lease-file fallback instead.
func (f *FaultFS) Flock(path string, exclusive bool) (io.Closer, error) {
	path = filepath.Clean(path)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.NoFlock {
		return nil, errors.ErrUnsupported
	}
	if _, isFile := f.files[path]; !isFile && !f.dirs[path] {
		return nil, pathErr("flock", path, fs.ErrNotExist)
	}
	st := f.locks[path]
	if st == nil {
		st = &flockState{}
		f.locks[path] = st
	}
	if st.holders > 0 && (exclusive || st.excl) {
		return nil, ErrLockHeld
	}
	st.excl = exclusive
	st.holders++
	released := false
	return closerFunc(func() error {
		f.mu.Lock()
		defer f.mu.Unlock()
		if !released {
			released = true
			st.holders--
		}
		return nil
	}), nil
}

type closerFunc func() error

func (c closerFunc) Close() error { return c() }

// --- file handle ---

type memFile struct {
	fs     *FaultFS
	node   *fnode
	path   string
	off    int64
	closed bool
}

func (m *memFile) Name() string { return m.path }

func (m *memFile) Read(p []byte) (int, error) {
	m.fs.mu.Lock()
	defer m.fs.mu.Unlock()
	if m.closed {
		return 0, pathErr("read", m.path, fs.ErrClosed)
	}
	if m.off >= int64(len(m.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.node.data[m.off:])
	m.off += int64(n)
	return n, nil
}

// Write writes at the handle's offset, extending with zeros past EOF.
// An injected fault wrapping io.ErrShortWrite consumes half the buffer
// before failing — a short write.
func (m *memFile) Write(p []byte) (int, error) {
	m.fs.mu.Lock()
	defer m.fs.mu.Unlock()
	if m.closed {
		return 0, pathErr("write", m.path, fs.ErrClosed)
	}
	if err := m.fs.beginOp(OpWrite, m.path); err != nil {
		if !errors.Is(err, io.ErrShortWrite) {
			return 0, pathErr("write", m.path, err)
		}
		return m.writeLocked(p[:len(p)/2]), pathErr("write", m.path, err)
	}
	return m.writeLocked(p), nil
}

// writeLocked performs the raw write. Caller holds fs.mu.
func (m *memFile) writeLocked(p []byte) int {
	end := m.off + int64(len(p))
	for int64(len(m.node.data)) < m.off {
		m.node.data = append(m.node.data, 0)
	}
	if end > int64(len(m.node.data)) {
		m.node.data = append(m.node.data[:m.off], p...)
	} else {
		copy(m.node.data[m.off:], p)
	}
	m.off = end
	return len(p)
}

func (m *memFile) Seek(offset int64, whence int) (int64, error) {
	m.fs.mu.Lock()
	defer m.fs.mu.Unlock()
	switch whence {
	case io.SeekStart:
		m.off = offset
	case io.SeekCurrent:
		m.off += offset
	case io.SeekEnd:
		m.off = int64(len(m.node.data)) + offset
	}
	if m.off < 0 {
		m.off = 0
	}
	return m.off, nil
}

// Sync makes the file's current data durable against Crash.
func (m *memFile) Sync() error {
	m.fs.mu.Lock()
	defer m.fs.mu.Unlock()
	if err := m.fs.beginOp(OpSync, m.path); err != nil {
		return pathErr("sync", m.path, err)
	}
	m.node.synced = append([]byte(nil), m.node.data...)
	return nil
}

func (m *memFile) Truncate(size int64) error {
	m.fs.mu.Lock()
	defer m.fs.mu.Unlock()
	if err := m.fs.beginOp(OpTruncate, m.path); err != nil {
		return pathErr("truncate", m.path, err)
	}
	for int64(len(m.node.data)) < size {
		m.node.data = append(m.node.data, 0)
	}
	m.node.data = m.node.data[:size]
	return nil
}

func (m *memFile) Stat() (fs.FileInfo, error) {
	m.fs.mu.Lock()
	defer m.fs.mu.Unlock()
	return memInfo{name: filepath.Base(m.path), size: int64(len(m.node.data))}, nil
}

func (m *memFile) Close() error {
	m.fs.mu.Lock()
	defer m.fs.mu.Unlock()
	m.closed = true
	return nil
}

// --- fs.FileInfo / fs.DirEntry ---

type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }

type memDirEntry struct {
	name string
	dir  bool
}

func (e memDirEntry) Name() string { return e.name }
func (e memDirEntry) IsDir() bool  { return e.dir }
func (e memDirEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (e memDirEntry) Info() (fs.FileInfo, error) {
	return memInfo{name: e.name, dir: e.dir}, nil
}
