package metadata

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/vfs"
)

// noFlockFS returns a FaultFS that refuses flock, forcing Open onto
// the lease-file fallback path regardless of platform.
func noFlockFS() *vfs.FaultFS {
	f := vfs.NewFaultFS()
	f.NoFlock = true
	return f
}

// writeLockFile plants a generation-0 lease file (the bare LOCK name)
// with arbitrary content, as a crashed previous owner would have left it.
func writeLockFile(t *testing.T, fsys vfs.FS, dir, content string) {
	t.Helper()
	writeLeaseFile(t, fsys, dir, lockName, content)
}

// writeLeaseFile plants a lease file under an explicit name.
func writeLeaseFile(t *testing.T, fsys vfs.FS, dir, name, content string) {
	t.Helper()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if content != "" {
		if _, err := f.Write([]byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// stubPidAlive overrides the liveness probe for the test's duration.
func stubPidAlive(t *testing.T, alive bool) {
	t.Helper()
	orig := pidAlive
	pidAlive = func(int) bool { return alive }
	t.Cleanup(func() { pidAlive = orig })
}

func TestLeaseFallbackExcludesSecondWriter(t *testing.T) {
	fsys := noFlockFS()
	dir := t.TempDir()
	r, err := Open(dir, WithFS(fsys))
	if err != nil {
		t.Fatal(err)
	}
	// The lease file records our pid.
	if pid, ok := leaseOwner(fsys, dir); !ok || pid != os.Getpid() {
		t.Fatalf("lease pid = %d ok=%v, want own pid %d", pid, ok, os.Getpid())
	}
	if _, err := Open(dir, WithFS(fsys)); !errors.Is(err, ErrLocked) {
		t.Fatalf("second writer err = %v, want ErrLocked", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Close removed the lease; reopening succeeds.
	r2, err := Open(dir, WithFS(fsys))
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	r2.Close()
}

// TestLeaseStaleTakeover is the regression test for the wedged-LOCK
// bug: a process killed while holding the O_EXCL lease used to wedge
// every later open permanently. A dead owner's lease is now detected
// and taken over.
func TestLeaseStaleTakeover(t *testing.T) {
	fsys := noFlockFS()
	dir := t.TempDir()
	writeLockFile(t, fsys, dir, "pid 999999\n")
	stubPidAlive(t, false)

	r, err := Open(dir, WithFS(fsys))
	if err != nil {
		t.Fatalf("Open over stale lease: %v", err)
	}
	if _, err := r.Append(obs(1, 0, "happy", 1)); err != nil {
		t.Fatal(err)
	}
	// The takeover owns the next generation under our pid, and the open
	// swept the dead owner's file.
	if pid, ok := leasePid(fsys, filepath.Join(dir, lockName+".1")); !ok || pid != os.Getpid() {
		t.Fatalf("lease pid after takeover = %d ok=%v", pid, ok)
	}
	if _, err := fsys.Stat(filepath.Join(dir, lockName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("superseded lease still present (stat err = %v)", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseLiveOwnerStillExcludes(t *testing.T) {
	fsys := noFlockFS()
	dir := t.TempDir()
	writeLockFile(t, fsys, dir, "pid 999999\n")
	stubPidAlive(t, true)
	if _, err := Open(dir, WithFS(fsys)); !errors.Is(err, ErrLocked) {
		t.Fatalf("Open under live owner err = %v, want ErrLocked", err)
	}
}

// TestLeasePidlessTakeover covers the crash window between the O_EXCL
// create and the pid write: the file exists but is empty. After the
// grace re-read it is treated as stale and taken over.
func TestLeasePidlessTakeover(t *testing.T) {
	fsys := noFlockFS()
	dir := t.TempDir()
	writeLockFile(t, fsys, dir, "")
	stubPidAlive(t, true) // liveness must not even be consulted

	r, err := Open(dir, WithFS(fsys))
	if err != nil {
		t.Fatalf("Open over pid-less lease: %v", err)
	}
	r.Close()
}

// TestLeaseCloseAfterTakeoverLeavesNewOwner: an ousted owner's Close
// must not delete a lease that has since been taken over by another
// process — that would re-open the door to a third writer.
func TestLeaseCloseAfterTakeoverLeavesNewOwner(t *testing.T) {
	fsys := noFlockFS()
	dir := t.TempDir()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	c, err := lockLease(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a takeover whose winner swept our generation and a later
	// owner that came round to the same name: the file now records
	// another owner.
	path := filepath.Join(dir, lockName+".1")
	if err := fsys.Remove(path); err != nil {
		t.Fatal(err)
	}
	writeLeaseFile(t, fsys, dir, lockName+".1", "pid 424242\n")
	if err := c.Close(); err != nil {
		t.Fatalf("Close after takeover: %v", err)
	}
	if pid, ok := leasePid(fsys, path); !ok || pid != 424242 {
		t.Fatalf("lease pid after ousted Close = %d ok=%v, want the takeover winner's 424242 intact", pid, ok)
	}

	// A vanished lease file (taken over and already re-released) is a
	// clean close too.
	stubPidAlive(t, false) // 424242 is gone: its lease is stale
	c2, err := lockLease(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(filepath.Join(dir, lockName+".2")); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatalf("Close after lease vanished: %v", err)
	}
}

func TestWithLockWaitOutlastsHolder(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		r.Close()
	}()
	r2, err := Open(dir, WithLockWait(context.Background(), 5*time.Second))
	if err != nil {
		t.Fatalf("Open with lock wait: %v", err)
	}
	r2.Close()
}

func TestWithLockWaitTimeoutAndCancel(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Budget exhausted: ErrLocked surfaces.
	if _, err := Open(dir, WithLockWait(context.Background(), 20*time.Millisecond)); !errors.Is(err, ErrLocked) {
		t.Fatalf("timeout err = %v, want ErrLocked", err)
	}

	// Context cancelled mid-wait: both the cause and ErrLocked chain.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = Open(dir, WithLockWait(ctx, 5*time.Second))
	if !errors.Is(err, ErrLocked) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancel err = %v, want ErrLocked and DeadlineExceeded in chain", err)
	}
}

// TestLeaseTakeoverSingleWinner races contenders over one stale lease:
// the O_EXCL claim of the next generation must admit exactly one.
func TestLeaseTakeoverSingleWinner(t *testing.T) {
	fsys := noFlockFS()
	dir := t.TempDir()
	writeLockFile(t, fsys, dir, "pid 999999\n")
	stubPidAlive(t, false)

	const contenders = 8
	type result struct {
		r   *Repository
		err error
	}
	results := make(chan result, contenders)
	for i := 0; i < contenders; i++ {
		go func() {
			r, err := Open(dir, WithFS(fsys))
			results <- result{r, err}
		}()
	}
	var won int
	for i := 0; i < contenders; i++ {
		res := <-results
		if res.err == nil {
			won++
			defer res.r.Close()
		} else if !errors.Is(res.err, ErrLocked) {
			t.Fatalf("contender err = %v, want nil or ErrLocked", res.err)
		}
	}
	if won != 1 {
		t.Fatalf("%d contenders won the stale lease, want exactly 1", won)
	}
}

// readHookFS runs a hook once, right after the first read of a lease
// file returns: the point between a contender's staleness observation
// and whatever it does to claim the lease.
type readHookFS struct {
	*vfs.FaultFS
	hook func()
}

func (h *readHookFS) ReadFile(name string) ([]byte, error) {
	data, err := h.FaultFS.ReadFile(name)
	if hook := h.hook; hook != nil && strings.HasPrefix(filepath.Base(name), lockName) {
		h.hook = nil
		hook()
	}
	return data, err
}

// TestLeaseTakeoverInterleaved replays, deterministically, the
// interleavings that let two contenders both win a stale lease: the
// first contender has read the dead owner's lease file and judged it
// stale when other contenders run to completion inside that window. The
// claim must be atomic with the observation — the late contender loses.
func TestLeaseTakeoverInterleaved(t *testing.T) {
	cases := []struct {
		name  string
		stale string // the dead owner's lease file
		// between runs inside the first contender's window and returns
		// the repository that must end up the only writer.
		between func(t *testing.T, fsys vfs.FS, dir string) *Repository
	}{
		{"rival-takes-over", lockName, func(t *testing.T, fsys vfs.FS, dir string) *Repository {
			r, err := Open(dir, WithFS(fsys))
			if err != nil {
				t.Fatalf("rival contender: %v", err)
			}
			return r
		}},
		// The rival takes over and releases, emptying the directory; a
		// third writer then starts over at generation 1, so the number the
		// late contender is about to claim is free again.
		{"rival-releases-third-reopens", lockName + ".5", func(t *testing.T, fsys vfs.FS, dir string) *Repository {
			rival, err := Open(dir, WithFS(fsys))
			if err != nil {
				t.Fatalf("rival contender: %v", err)
			}
			if err := rival.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(dir, WithFS(fsys))
			if err != nil {
				t.Fatalf("third writer: %v", err)
			}
			return r
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := noFlockFS()
			dir := t.TempDir()
			writeLeaseFile(t, base, dir, tc.stale, "pid 999999\n")
			orig := pidAlive
			pidAlive = func(pid int) bool { return pid != 999999 }
			t.Cleanup(func() { pidAlive = orig })

			var holder *Repository
			fsys := &readHookFS{FaultFS: base}
			fsys.hook = func() { holder = tc.between(t, base, dir) }
			late, err := Open(dir, WithFS(fsys))
			if holder == nil {
				t.Fatal("the hook never fired: no lease file was read")
			}
			defer holder.Close()
			if err == nil {
				late.Close()
				t.Fatal("two writers: the late contender claimed a lease created after its staleness read")
			}
			if !errors.Is(err, ErrLocked) {
				t.Fatalf("late contender err = %v, want ErrLocked", err)
			}
			if _, err := holder.Append(obs(1, 0, "happy", 1)); err != nil {
				t.Fatalf("holder append: %v", err)
			}
			if pid, ok := leaseOwner(base, dir); !ok || pid != os.Getpid() {
				t.Fatalf("lease owner after the race = %d ok=%v, want the holder", pid, ok)
			}
		})
	}
}
