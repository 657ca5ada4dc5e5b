package main

import (
	"io/fs"
	"sync/atomic"

	"repro/internal/vfs"
)

// countFS is the filesystem under every repository the benchmark
// writes: the real one, except that fsync is counted instead of
// executed. The issue puts the data root on tmpfs, where fsync costs
// nothing; a run may only write inside its checkout, which is on a
// shared virtual disk, and there one archive_serve run issued 1 850
// flushes and 400 MB of write-back whose latency is the host's, not the
// product's. Counting keeps the flushes visible as exact per-layer
// numbers (fsyncs and bytes written per record) without timing the disk.
type countFS struct {
	vfs.OsFS
	syncs, bytes atomic.Int64
}

func (c *countFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := c.OsFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) SyncDir(string) error {
	c.syncs.Add(1)
	return nil
}

// take returns and clears the counters.
func (c *countFS) take() (syncs, bytes int64) {
	return c.syncs.Swap(0), c.bytes.Swap(0)
}

type countFile struct {
	vfs.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	f.fs.syncs.Add(1)
	return nil
}
